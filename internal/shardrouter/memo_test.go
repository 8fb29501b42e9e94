package shardrouter

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheCounters: the first Do of a key fills and reports a miss,
// every later one reports a hit without filling; a failed fill is not
// memoized, so the next Do fills (and misses) again.
func TestCacheCounters(t *testing.T) {
	var m Memo[string, int]
	fills := 0
	fill := func() (int, error) { fills++; return 42, nil }
	if v, hit, err := m.Do("k", fill); err != nil || hit || v != 42 {
		t.Fatalf("first Do = %v, %v, %v; want 42, miss", v, hit, err)
	}
	for i := 0; i < 3; i++ {
		if v, hit, err := m.Do("k", fill); err != nil || !hit || v != 42 {
			t.Fatalf("Do %d = %v, %v, %v; want 42, hit", i, v, hit, err)
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}

	boom := errors.New("boom")
	if _, hit, err := m.Do("e", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failing fill = %v, hit %v; want boom, miss", err, hit)
	}
	if v, hit, err := m.Do("e", func() (int, error) { return 9, nil }); err != nil || hit || v != 9 {
		t.Fatalf("Do after failure = %v, %v, %v; want 9, miss", v, hit, err)
	}
	if n := len(m.cells); n != 2 {
		t.Errorf("%d memoized keys, want 2", n)
	}
}

// TestCacheSingleflight: concurrent callers missing on one key share a
// single fill; all but the filler report hits.
func TestCacheSingleflight(t *testing.T) {
	var m Memo[string, int]
	var fills atomic.Int32
	release := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	hits := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := m.Do("k", func() (int, error) {
				fills.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	// Let the goroutines pile onto the fill, then release it.
	for fills.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Errorf("fill ran %d times, want 1 (singleflight)", got)
	}
	misses := 0
	for i, v := range results {
		if v != 7 {
			t.Errorf("worker %d got %d, want 7", i, v)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly the filler", misses)
	}
}

// TestCacheLeaderErrorWaiterRetries: a waiter on a fill that fails
// does not inherit the error (it may be the filler's own cancellation);
// it fills by itself, and its value is memoized for later callers.
func TestCacheLeaderErrorWaiterRetries(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	inFill := make(chan struct{})
	release := make(chan struct{})
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		_, _, err := m.Do("k", func() (int, error) {
			close(inFill)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v, want boom", err)
		}
	}()
	<-inFill
	var waiterFilled atomic.Bool
	waiting := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		close(waiting)
		v, _, err := m.Do("k", func() (int, error) {
			waiterFilled.Store(true)
			return 9, nil
		})
		if err == nil && v != 9 {
			t.Errorf("waiter got %v", v)
		}
		waiterErr <- err
	}()
	<-waiting
	runtime.Gosched()
	close(release)
	leaderDone.Wait()
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter err = %v", err)
	}
	if !waiterFilled.Load() {
		t.Error("waiter should have filled by itself after the leader's error")
	}
	if v, hit, err := m.Do("k", func() (int, error) { return -1, nil }); err != nil || !hit || v != 9 {
		t.Errorf("Do after the waiter's fill = %v, %v, %v; want 9, hit", v, hit, err)
	}
}

// TestMemoMax: a bounded memo drops older keys to admit a new one, so
// with Max 1 it keeps only the latest; a dropped key fills again.
func TestMemoMax(t *testing.T) {
	m := Memo[int, int]{Max: 1}
	fills := 0
	fill := func(v int) func() (int, error) {
		return func() (int, error) { fills++; return v, nil }
	}
	for k := 0; k < 5; k++ {
		if v, hit, err := m.Do(k, fill(k)); err != nil || hit || v != k {
			t.Fatalf("Do(%d) = %v, %v, %v; want %d, miss", k, v, hit, err, k)
		}
		if n := m.Len(); n != 1 {
			t.Fatalf("after Do(%d): %d entries, want 1", k, n)
		}
	}
	if _, hit, _ := m.Do(4, fill(4)); !hit {
		t.Error("latest key was not kept")
	}
	if _, hit, _ := m.Do(0, fill(0)); hit {
		t.Error("dropped key reported a hit")
	}
	if fills != 6 {
		t.Errorf("fill ran %d times, want 6", fills)
	}

	b := Memo[int, int]{Max: 3}
	for k := 0; k < 10; k++ {
		b.Do(k, fill(k))
		if n := b.Len(); n > 3 {
			t.Fatalf("after Do(%d): %d entries, want at most 3", k, n)
		}
	}
}

func TestHashSpecsBoundaries(t *testing.T) {
	// List boundaries must be unambiguous: ["ab"],["c"] vs ["a"],["bc"]
	// and ["a","b"] vs ["a"],["b"] must hash differently.
	if HashSpecs([]string{"ab"}, []string{"c"}) == HashSpecs([]string{"a"}, []string{"bc"}) {
		t.Error("HashSpecs collides across element boundaries")
	}
	if HashSpecs([]string{"a", "b"}) == HashSpecs([]string{"a"}, []string{"b"}) {
		t.Error("HashSpecs collides across list boundaries")
	}
	if HashSpecs([]string{"a"}) != HashSpecs([]string{"a"}) {
		t.Error("HashSpecs not deterministic")
	}
}
