package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box shares its memory system with other guests. For
// minutes at a time the same deterministic work runs 1.3 to 3 times
// slower: a pure arithmetic loop does not notice, pointer chasing and
// the index's label scans do, and next to none of it shows as steal time. A
// set of ten runs straddles such periods, so wall-clock metrics of
// unchanged code spread by 15 to 60%, more than any bound the gate may
// carry.
//
// boxClock therefore keeps a second clock that runs at the speed of the
// box. A sidecar goroutine runs a small fixed memory-bound kernel every
// refPeriod; refNominal over the kernel's time is how fast the box is
// just then, and reference time advances at that rate. Every duration the
// benchmark reports is taken on this clock: seconds as they would have
// been on the quiet box. The kernel lives here and never calls the
// repository's code, so a change to the index cannot move the clock.
// box.slowdown reports the mean factor of a run, for converting back.
//
// How much of the kernel's slowdown a workload feels is the workload's
// own: the slope of log metric against log kernel time over 40 runs of
// each is 0.9 to 1.4 for the three small workloads, whose hot data sits
// in the cache the guests share, and 0.04 to 0.35 for build-dblp, whose
// 13.7M-entry cover misses that cache quiet or not. The rate is therefore
// (refNominal / kernel time) to the power of the workload's share.
type boxClock struct {
	chase []int32 // one random cycle: every step a dependent cache miss
	lists refLists
	rng   xorshift
	at    int32

	mu     sync.Mutex
	share  float64 // how much of the kernel's slowdown the running workload feels
	t0     time.Time
	ends   []time.Duration // since t0: when each sample ended
	cum    []time.Duration // reference time elapsed at ends[i]
	rates  []float64       // rate of the interval that ends at ends[i]
	recent []time.Duration // the last kernel times, for smoothing
}

const (
	// refNominal is the kernel's time on the reference box at its
	// quietest, taken every refPeriod in an otherwise idle process.
	refNominal = 600 * time.Microsecond
	refPeriod  = 20 * time.Millisecond
	refSmooth  = 5 // samples the rate is the median of
)

// refLists is a label-like structure: many short sorted lists in one
// array. Intersecting random pairs reads as the index's probes do.
type refLists struct {
	off  []int32
	data []int32
}

// xorshift is a small fixed generator: the kernel's own randomness must
// cost next to nothing and never change.
type xorshift uint64

func (x *xorshift) intn(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

// sharedClock is the process's one clock: building it takes a fifth of a
// second and its arrays 60 MB, and the smoke test runs eight workloads.
var sharedClock = sync.OnceValue(newBoxClock)

// offHeap maps n int32 outside the Go heap: the collector sizes its
// target by the live heap, and the kernel's arrays must not make every
// workload's garbage, and so its peak_rss_mb, bigger. Pages count as
// resident only once written.
func offHeap(n int) []int32 {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mmap for the reference kernel: " + err.Error()) // nothing can be measured without it
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), n)
}

func newBoxClock() *boxClock {
	const chaseLen = 4 << 20 // 16 MB of int32
	b := &boxClock{chase: offHeap(chaseLen), rng: 88172645463325252}
	// Sattolo's shuffle: one cycle through all of the array
	for i := range b.chase {
		b.chase[i] = int32(i)
	}
	for i := chaseLen - 1; i > 0; i-- {
		j := b.rng.intn(i)
		b.chase[i], b.chase[j] = b.chase[j], b.chase[i]
	}
	const nLists, maxLen = 1_000_000, 20 // about 10.5M entries, 42 MB
	b.lists.off = offHeap(nLists + 1)
	b.lists.data = offHeap(nLists * maxLen)[:0]
	for i := 0; i < nLists; i++ {
		v := int32(b.rng.intn(64))
		for k := 1 + b.rng.intn(maxLen); k > 0; k-- {
			v += int32(1 + b.rng.intn(40))
			b.lists.data = append(b.lists.data, v)
		}
		b.lists.off[i+1] = int32(len(b.lists.data))
	}
	b.restart(1)
	go b.sample()
	return b
}

// restart begins a new run: reference time starts again at zero and
// advances by the kernel's slowdown to the power of share.
func (b *boxClock) restart(share float64) {
	b.mu.Lock()
	b.share, b.t0 = share, time.Now()
	b.ends, b.cum, b.rates = nil, nil, nil
	b.mu.Unlock()
}

// runKernel does the fixed work: 1,000 dependent loads, then 500
// intersections of two random lists.
func (b *boxClock) runKernel() int {
	at := b.at
	for i := 0; i < 1000; i++ {
		at = b.chase[at]
	}
	b.at = at
	hits, n := 0, len(b.lists.off)-1
	for i := 0; i < 500; i++ {
		p, q := b.rng.intn(n), b.rng.intn(n)
		x, y := b.lists.data[b.lists.off[p]:b.lists.off[p+1]], b.lists.data[b.lists.off[q]:b.lists.off[q+1]]
		for len(x) > 0 && len(y) > 0 {
			switch {
			case x[0] < y[0]:
				x = x[1:]
			case x[0] > y[0]:
				y = y[1:]
			default:
				hits++
				x, y = x[1:], y[1:]
			}
		}
	}
	return hits
}

// sample runs for the life of the process.
func (b *boxClock) sample() {
	for range time.Tick(refPeriod) {
		b.once()
	}
}

// once takes one sample and advances reference time up to its end at
// the rate of the median of the last refSmooth samples: one sample that a
// collection or a preemption landed in does not move the clock.
func (b *boxClock) once() {
	t := time.Now()
	b.runKernel()
	end := time.Now()
	d := end.Sub(t)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.recent = append(b.recent, d)
	if len(b.recent) > refSmooth {
		b.recent = b.recent[1:]
	}
	s := append([]time.Duration(nil), b.recent...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rate := math.Pow(float64(refNominal)/float64(s[len(s)/2]), b.share)
	var lastEnd, lastCum time.Duration
	if n := len(b.ends); n > 0 {
		lastEnd, lastCum = b.ends[n-1], b.cum[n-1]
	}
	at := end.Sub(b.t0)
	b.ends = append(b.ends, at)
	b.rates = append(b.rates, rate)
	b.cum = append(b.cum, lastCum+time.Duration(float64(at-lastEnd)*rate))
}

// refAt is the reference time elapsed at t. Past the last sample the
// clock runs on at the last rate; before the first of a run, at the
// wall clock's.
func (b *boxClock) refAt(t time.Time) time.Duration {
	at := t.Sub(b.t0)
	if len(b.ends) == 0 {
		return at
	}
	i := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] >= at })
	if i < len(b.ends) {
		return b.cum[i] - time.Duration(float64(b.ends[i]-at)*b.rates[i])
	}
	n := len(b.ends) - 1
	return b.cum[n] + time.Duration(float64(at-b.ends[n])*b.rates[n])
}

// between is the reference time from start to end.
func (b *boxClock) between(start, end time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refAt(end) - b.refAt(start)
}

func (b *boxClock) since(start time.Time) time.Duration { return b.between(start, time.Now()) }

// wallUntil is how long on the wall clock, at the box's present speed,
// until d of reference time has passed since start; negative once it has.
func (b *boxClock) wallUntil(start time.Time, d time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	left := d - (b.refAt(time.Now()) - b.refAt(start))
	if len(b.rates) == 0 {
		return left
	}
	return time.Duration(float64(left) / b.rates[len(b.rates)-1])
}

// slowdown is how much slower than the quiet reference box the box was
// from start to now: wall time over reference time.
func (b *boxClock) slowdown(start time.Time) float64 {
	now := time.Now()
	return float64(now.Sub(start)) / float64(b.between(start, now))
}
