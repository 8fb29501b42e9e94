package hopi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// --- helpers ----------------------------------------------------------

// watchConsumer cumulatively applies delivered watch events to a local
// result-set replica, exactly as a client would.
type watchConsumer struct {
	t      *testing.T
	w      *Watch
	state  map[ElemID]float64
	init   bool
	resync bool
	epoch  uint64
	events int
}

func subscribe(t *testing.T, ix *Index, expr string, opts ...WatchOption) *watchConsumer {
	t.Helper()
	pq, err := Prepare(expr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ix.Watch(context.Background(), pq, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return &watchConsumer{t: t, w: w, state: map[ElemID]float64{}}
}

func (c *watchConsumer) apply(ev *WatchEvent) {
	c.events++
	c.epoch = ev.Epoch
	if ev.Resync {
		c.resync = true
		return
	}
	if ev.Init {
		c.init = true
		c.state = map[ElemID]float64{}
	}
	for _, e := range ev.Remove {
		delete(c.state, e)
	}
	for _, r := range ev.Add {
		c.state[r.Element] = r.Score
	}
}

// pump drains whatever events arrive within d.
func (c *watchConsumer) pump(d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	for {
		ev, err := c.w.Next(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrWatchClosed) {
				return
			}
			c.t.Fatalf("watch Next: %v", err)
		}
		c.apply(ev)
	}
}

// oracleState re-runs expr on the index's current snapshot.
func oracleState(t *testing.T, ix *Index, expr string, ranked bool) map[ElemID]float64 {
	t.Helper()
	want := map[ElemID]float64{}
	if ranked {
		res, err := ix.QueryRanked(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			want[r.Element] = r.Score
		}
	} else {
		res, err := ix.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			want[r.Element] = 0
		}
	}
	return want
}

func stateEqual(a, b map[ElemID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// waitMatch applies delivered events until the consumer's replica
// equals want (the notifier runs asynchronously) or 15 s pass.
func waitMatch(t *testing.T, c *watchConsumer, want map[ElemID]float64, label string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for !stateEqual(c.state, want) {
		ev, err := c.w.Next(ctx)
		if err != nil {
			t.Fatalf("%s: watch replica diverged after drain (%v):\n got %v\nwant %v (init=%v resync=%v events=%d epoch=%d)",
				label, err, c.state, want, c.init, c.resync, c.events, c.epoch)
		}
		c.apply(ev)
	}
}

// --- behaviors --------------------------------------------------------

// TestWatchIncrementalPath asserts the delta-seeded evaluator (not the
// full re-run) serves steady-state notifications for a 2-step query
// with distinct tags.
func TestWatchIncrementalPath(t *testing.T) {
	ix := demoIndex(t, false)
	t.Cleanup(func() { ix.Close() })
	c := subscribe(t, ix, "//article//author")
	c.pump(200 * time.Millisecond) // init

	for i := 0; i < 4; i++ {
		op := scriptOp{kind: 0, name: fmt.Sprintf("inc%02d.xml", i)} // no link: pure insert
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatal(err)
		}
		want := oracleState(t, ix, "//article//author", false)
		waitMatch(t, c, want, "incremental insert")
	}
	st := ix.WatchStats()
	if st.IncrementalDeltas == 0 {
		t.Fatalf("expected incremental rounds, stats %+v", st)
	}
}

// TestWatchSlowConsumerEviction drives churn into an unread 1-element
// queue: the session must deliver a terminal Resync event, after which
// Next fails ErrWatchClosed, and re-subscribing with the current epoch
// resumes without an Init event.
func TestWatchSlowConsumerEviction(t *testing.T) {
	ix := demoIndex(t, false)
	t.Cleanup(func() { ix.Close() })
	pq, err := Prepare("//author")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ix.Watch(context.Background(), pq, WatchMaxPending(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// do not consume while churning: pending adds exceed the bound
	for i := 0; i < 6; i++ {
		op := scriptOp{kind: 0, name: fmt.Sprintf("ev%02d.xml", i)}
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatal(err)
		}
	}
	var resync *WatchEvent
	deadline := time.Now().Add(10 * time.Second)
	for resync == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		ev, err := w.Next(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				if time.Now().After(deadline) {
					t.Fatal("no resync delivered")
				}
				continue
			}
			t.Fatal(err)
		}
		if ev.Resync {
			resync = ev
		}
	}
	if _, err := w.Next(context.Background()); !errors.Is(err, ErrWatchClosed) {
		t.Fatalf("post-resync Next: %v, want ErrWatchClosed", err)
	}
	if ix.WatchStats().Evictions == 0 {
		t.Error("eviction not counted")
	}

	// re-subscribe from the resync epoch: if nothing committed since,
	// the init event is skipped
	if resync.Epoch == ix.Epoch() {
		w2, err := ix.Watch(context.Background(), pq, WatchResume(resync.Epoch))
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if !w2.Resumed() {
			t.Error("resume with current epoch should skip init")
		}
	}
}

// TestWatchResumeStaleEpoch: resuming from an epoch the index has moved
// past must deliver a fresh Init event instead.
func TestWatchResumeStaleEpoch(t *testing.T) {
	ix := demoIndex(t, false)
	t.Cleanup(func() { ix.Close() })
	old := ix.Epoch()
	op := scriptOp{kind: 0, name: "r0.xml"}
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
		t.Fatal(err)
	}
	c := subscribe(t, ix, "//author", WatchResume(old))
	if c.w.Resumed() {
		t.Fatal("stale resume epoch must not skip init")
	}
	waitMatch(t, c, oracleState(t, ix, "//author", false), "stale resume")
	if !c.init {
		t.Error("expected init event")
	}
}

// TestWatchCloseUnblocksNext: closing the index tears down sessions and
// unblocks waiting consumers with ErrWatchClosed.
func TestWatchCloseUnblocksNext(t *testing.T) {
	ix := demoIndex(t, false)
	pq, err := Prepare("//author")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ix.Watch(context.Background(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Next(context.Background()); err != nil {
		t.Fatal(err) // init event
	}
	errc := make(chan error, 1)
	go func() {
		_, err := w.Next(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrWatchClosed) {
			t.Fatalf("Next after Close: %v, want ErrWatchClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}
