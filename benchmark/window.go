package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// opFunc performs operation i of one client. parent and op place the
// spans it records; both are meaningless (-1, 0) on untraced runs.
type opFunc func(client, i int, parent int32, op int64) error

// windowSpec describes one timed window: closed-loop readers that each
// send their next request when the previous one returns, and at most
// one writer: open-loop at rate writes per second of reference time,
// sending on a schedule whatever the system does, or closed-loop when
// rate is 0.
//
// The serving windows run one reader. On the two-processor reference
// box a second reader leaves no processor for the writer, the collector
// and the runtime, and the same code then measures 10% apart from run
// to run; one reader repeats within 2%. What a second reader adds is
// measured on its own, as read_scaling_2_clients.
type windowSpec struct {
	name    string // span-name prefix, e.g. "ro" or "mixed"
	dur     time.Duration
	readers int
	read    opFunc
	cycle   int // reads per pass over the reader's rotation
	// probe marks the reads of one operation type. Median latency is
	// reported for that type alone: over the whole rotation the median
	// sits on the border between two types and jumps between them.
	probe func(i int) bool
	write opFunc  // nil: no writer
	rate  float64 // writes per second; 0 makes the writer closed-loop
	// afterWrite, when set, runs after each write has been timed: for
	// bookkeeping that must not count as the write's latency.
	afterWrite func()
}

type windowResult struct {
	elapsed time.Duration
	readers int
	cycle   int
	reads   lats
	probes  lats // the reads spec.probe marked
	// readCycles holds, per client, how long each full pass over the
	// rotation took. Throughput is taken from their median, so that a
	// garbage collection or a scheduling hiccup that lands in a few
	// passes does not move it.
	readCycles lats
	// writes holds one latency per write: service time for a closed-loop
	// writer, time from the due instant for an open-loop one, so a stall
	// charges the writes queued behind it.
	writes   lats
	lateness lats // open loop: how late the generator issued each write
}

// qps is reads per second from the median pass time, or from the plain
// count when the window held fewer than three passes.
func (w windowResult) qps() float64 {
	if len(w.readCycles) >= 3 {
		return float64(w.readers*w.cycle) / w.readCycles.sorted().pctMs(0.5) * 1e3
	}
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.reads)) / w.elapsed.Seconds()
}

func (w windowResult) writesPerS() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.writes)) / w.elapsed.Seconds()
}

// runWindow drives the window and counts every operation into the run's
// attempted/failed totals. Operations in flight at the deadline finish
// and are counted; elapsed runs until the last one returns. The window
// lasts spec.dur on the wall clock; what it reports is reference time.
func (r *run) runWindow(spec windowSpec) windowResult {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	res := windowResult{readers: spec.readers, cycle: max(spec.cycle, 1)}
	// start every window from a collected heap and a flushed disk, not
	// from wherever the step before left them: dirty pages written back
	// during a window interrupt its reader thousands of times a second
	runtime.GC()
	syscall.Sync()
	start := time.Now()
	deadline := start.Add(spec.dur)
	for c := 0; c < spec.readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine, probes, cycles lats
			cycleStart := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				op := r.rec.newOp()
				id := r.rec.begin(-1, op, spec.name+".read")
				t := time.Now()
				err := spec.read(c, i, id, op)
				d := r.clock.since(t)
				r.rec.end(id)
				r.attempted.Add(1)
				if err != nil {
					r.fail("%s read %d/%d: %v", spec.name, c, i, err)
					continue
				}
				mine = append(mine, d)
				if spec.probe != nil && spec.probe(i) {
					probes = append(probes, d)
				}
				if (i+1)%res.cycle == 0 {
					now := time.Now()
					cycles = append(cycles, r.clock.between(cycleStart, now))
					cycleStart = now
				}
			}
			mu.Lock()
			res.reads = append(res.reads, mine...)
			res.probes = append(res.probes, probes...)
			res.readCycles = append(res.readCycles, cycles...)
			mu.Unlock()
		}(c)
	}
	if spec.write != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				// An open-loop writer sends on a schedule whatever the system
				// does. The schedule is in reference time, so a slow box is
				// offered the same share of what it can do as a quiet one.
				var due time.Duration
				for spec.rate > 0 {
					due = time.Duration(float64(i) / spec.rate * float64(time.Second))
					wait := r.clock.wallUntil(start, due)
					if wait <= 0 {
						break
					}
					if !time.Now().Add(wait).Before(deadline) {
						return
					}
					time.Sleep(wait)
				}
				if !time.Now().Before(deadline) {
					return
				}
				op := r.rec.newOp()
				id := r.rec.begin(-1, op, spec.name+".write")
				issued := time.Now()
				err := spec.write(0, i, id, op)
				done := time.Now()
				r.rec.end(id)
				r.attempted.Add(1)
				if err != nil {
					r.fail("%s write %d: %v", spec.name, i, err)
					continue
				}
				if spec.rate > 0 {
					late := r.clock.between(start, issued) - due
					res.lateness = append(res.lateness, late)
					res.writes = append(res.writes, late+r.clock.between(issued, done))
				} else {
					res.writes = append(res.writes, r.clock.between(issued, done))
				}
				if spec.afterWrite != nil {
					spec.afterWrite()
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = r.clock.since(start)
	logf("box: %.2fx slower than the reference during the %s window", r.clock.slowdown(start), spec.name)
	return res
}
