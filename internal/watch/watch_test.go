package watch

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

type push struct {
	epoch   uint64
	add     []Result
	remove  []int32
	batches int
}

func el(id int32, score float64) Result {
	return Result{Element: id, Doc: "d.xml", Tag: "a", Score: score}
}

// TestPushMergeAlgebra drives the merge algebra documented at the top
// of watch.go: whatever was coalesced, the one delivered event takes
// the client from its last-delivered state to the latest one.
func TestPushMergeAlgebra(t *testing.T) {
	for _, c := range []struct {
		name      string
		pushes    []push
		add       []Result
		remove    []int32
		coalesced int
	}{
		{
			name:      "single push is delivered sorted by element",
			pushes:    []push{{1, []Result{el(9, 0), el(3, 0)}, []int32{8, 2}, 1}},
			add:       []Result{el(3, 0), el(9, 0)},
			remove:    []int32{2, 8},
			coalesced: 1,
		},
		{
			name: "remove cancels a pending add of the same element",
			pushes: []push{
				{1, []Result{el(5, 0), el(6, 0)}, nil, 1},
				{2, nil, []int32{5}, 1},
			},
			add:       []Result{el(6, 0)},
			remove:    []int32{5},
			coalesced: 2,
		},
		{
			name: "add cancels a pending remove of the same element",
			pushes: []push{
				{1, nil, []int32{5, 7}, 1},
				{2, []Result{el(5, 0.5)}, nil, 1},
			},
			add:       []Result{el(5, 0.5)},
			remove:    []int32{7},
			coalesced: 2,
		},
		{
			name: "remove and add in one push leaves the add",
			pushes: []push{
				{1, []Result{el(5, 0.25)}, []int32{5}, 1},
			},
			add:       []Result{el(5, 0.25)},
			remove:    []int32{},
			coalesced: 1,
		},
		{
			name: "a later add replaces the pending payload",
			pushes: []push{
				{1, []Result{el(5, 0.25)}, nil, 1},
				{2, []Result{el(5, 0.75)}, nil, 1},
			},
			add:       []Result{el(5, 0.75)},
			remove:    []int32{},
			coalesced: 2,
		},
		{
			name: "batch counts add up across pushes",
			pushes: []push{
				{3, []Result{el(1, 0)}, nil, 1},
				{5, nil, nil, 2},
				{8, []Result{el(2, 0)}, nil, 3},
			},
			add:       []Result{el(1, 0), el(2, 0)},
			remove:    []int32{},
			coalesced: 6,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHub()
			defer h.Close()
			s, err := h.Register(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range c.pushes {
				s.Push(p.epoch, p.add, p.remove, p.batches)
			}
			if st := h.Stats(); st.Sessions != 1 || st.QueuedDeltas != 1 {
				t.Errorf("before delivery: %+v, want one session with one queued delta", st)
			}
			ev, err := s.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			last := c.pushes[len(c.pushes)-1].epoch
			if ev.Epoch != last || ev.Init || ev.Resync || ev.Coalesced != c.coalesced {
				t.Errorf("event %+v, want a delta at epoch %d coalescing %d", ev, last, c.coalesced)
			}
			if !reflect.DeepEqual(ev.Add, c.add) {
				t.Errorf("Add = %v, want %v", ev.Add, c.add)
			}
			if !reflect.DeepEqual(ev.Remove, c.remove) {
				t.Errorf("Remove = %v, want %v", ev.Remove, c.remove)
			}
			st := h.Stats()
			if st.QueuedDeltas != 0 || st.Delivered != 1 || st.Coalesced != uint64(c.coalesced-1) {
				t.Errorf("after delivery: %+v, want 1 delivered, %d coalesced", st, c.coalesced-1)
			}
		})
	}
}

// TestOverflowEndsInResync fills a session past maxPending: it must
// drop the delta, deliver one terminal resync event carrying the
// epoch to re-subscribe from, and then report itself closed.
func TestOverflowEndsInResync(t *testing.T) {
	h := NewHub()
	defer h.Close()
	s, err := h.Register(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Push(1, []Result{el(1, 0), el(2, 0)}, []int32{3}, 1) // exactly at the bound
	if !s.Active() {
		t.Fatal("evicted at the bound, want only past it")
	}
	s.Push(2, []Result{el(4, 0)}, nil, 1)
	if s.Active() {
		t.Fatal("still active with 4 pending elements and maxPending 3")
	}
	s.Push(3, []Result{el(5, 0)}, nil, 1) // ignored: the resync epoch stays 2

	ctx := context.Background()
	ev, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Resync || ev.Epoch != 2 || len(ev.Add) != 0 || len(ev.Remove) != 0 {
		t.Errorf("event %+v, want an empty resync at epoch 2", ev)
	}
	if ev, err := s.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Next after the resync event = %+v, %v; want ErrClosed", ev, err)
	}
	if st := h.Stats(); st.Evictions != 1 || st.QueuedDeltas != 0 {
		t.Errorf("stats %+v, want one eviction and nothing queued", st)
	}
}

// TestCloseUnblocksNext checks that a client blocked in Next is
// released with ErrClosed by its own Close and by the hub's.
func TestCloseUnblocksNext(t *testing.T) {
	for _, c := range []struct {
		name  string
		close func(*Hub, *Session)
	}{
		{"Session.Close", func(_ *Hub, s *Session) { s.Close() }},
		{"Hub.Close", func(h *Hub, _ *Session) { h.Close() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHub()
			defer h.Close()
			s, err := h.Register(0)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan error, 1)
			go func() {
				_, err := s.Next(context.Background())
				got <- err
			}()
			select {
			case err := <-got:
				t.Fatalf("Next returned %v with nothing pending", err)
			case <-time.After(20 * time.Millisecond):
			}
			c.close(h, s)
			select {
			case err := <-got:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Next = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Next still blocked after close")
			}
			select {
			case <-s.Done():
			default:
				t.Error("Done not closed")
			}
			s.Push(1, []Result{el(1, 0)}, nil, 1)
			if _, err := s.Next(context.Background()); !errors.Is(err, ErrClosed) {
				t.Errorf("Next after a push to a closed session = %v, want ErrClosed", err)
			}
			if st := h.Stats(); st.Sessions != 0 {
				t.Errorf("%d sessions still registered", st.Sessions)
			}
		})
	}
	h := NewHub()
	h.Close()
	if _, err := h.Register(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Register on a closed hub = %v, want ErrClosed", err)
	}
}
