package hopi

import (
	"context"
	"sync"

	"hopi/internal/core"
	"hopi/internal/watch"
)

// ErrWatchClosed is returned by Watch.Next after the watch (or the
// index) has been closed, or after a Resync event was delivered.
var ErrWatchClosed = watch.ErrClosed

// WatchEvent is one live-query notification. The first event has Init
// set and carries the full result set in Add; later events carry
// incremental deltas: apply Remove first, then Add (an Add for an
// element already present replaces it — ranked watches re-Add on
// score change). A Resync event is terminal: the consumer fell too
// far behind and must re-subscribe with WatchResume(Epoch).
type WatchEvent struct {
	Epoch     uint64
	Init      bool
	Add       []QueryResult
	Remove    []ElemID
	Resync    bool
	Coalesced int
}

// Watch is a live subscription to a prepared query's result set; see
// Index.Watch.
type Watch struct {
	ses     *watch.Session
	resumed bool
}

// Next blocks until the next event, context cancellation, or close.
func (w *Watch) Next(ctx context.Context) (*WatchEvent, error) {
	ev, err := w.ses.Next(ctx)
	if err != nil {
		return nil, err
	}
	out := &WatchEvent{
		Epoch:     ev.Epoch,
		Init:      ev.Init,
		Resync:    ev.Resync,
		Coalesced: ev.Coalesced,
	}
	if len(ev.Add) > 0 {
		out.Add = make([]QueryResult, len(ev.Add))
		for i, r := range ev.Add {
			out.Add[i] = QueryResult{Element: r.Element, Doc: r.Doc, Tag: r.Tag, Score: r.Score}
		}
	}
	if len(ev.Remove) > 0 {
		out.Remove = make([]ElemID, len(ev.Remove))
		for i, e := range ev.Remove {
			out.Remove[i] = e
		}
	}
	return out, nil
}

// Close ends the subscription. Idempotent.
func (w *Watch) Close() { w.ses.Close() }

// Resumed reports whether the subscription resumed an earlier session
// (WatchResume epoch matched the current snapshot): no Init event is
// delivered and the first event is an incremental delta.
func (w *Watch) Resumed() bool { return w.resumed }

// WatchStats aggregates live-query activity on one index.
type WatchStats struct {
	// Sessions is the number of live subscriptions; QueuedDeltas how
	// many of them have an undelivered pending delta.
	Sessions     int
	QueuedDeltas int
	// Delivered counts events handed to consumers; Coalesced counts
	// maintenance batches that were merged into an already-pending
	// delta instead of producing their own event; Evictions counts
	// slow-consumer resyncs.
	Delivered uint64
	Coalesced uint64
	Evictions uint64
	// FullRuns and IncrementalDeltas count notifier evaluation rounds
	// per strategy: full re-run + diff vs. delta-seeded DiffEval.
	FullRuns          uint64
	IncrementalDeltas uint64
}

// WatchStats reports live-query counters; all zero when no watch was
// ever opened on this index.
func (ix *Index) WatchStats() WatchStats {
	ws := ix.watch.Load()
	if ws == nil {
		return WatchStats{}
	}
	st := ws.hub.Stats()
	return WatchStats{
		Sessions:          st.Sessions,
		QueuedDeltas:      st.QueuedDeltas,
		Delivered:         st.Delivered,
		Coalesced:         st.Coalesced,
		Evictions:         st.Evictions,
		FullRuns:          st.FullRuns,
		IncrementalDeltas: st.Incremental,
	}
}

// Epoch returns the index's current version stamp — the epoch the
// next snapshot will carry. On durable indexes and followers this is
// the committed WAL sequence.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

type watchConfig struct {
	maxPending int
	ranked     bool
	resume     uint64
	hasResume  bool
}

// WatchOption configures Index.Watch.
type WatchOption func(*watchConfig)

// WatchMaxPending bounds the per-session pending delta to n elements
// (adds + removes); a consumer that falls further behind is evicted
// with a Resync event. n ≤ 0 removes the bound. Default 8192.
func WatchMaxPending(n int) WatchOption {
	return func(c *watchConfig) { c.maxPending = n }
}

// WatchRanked subscribes to the ranked (scored) result set; requires
// an index built WithDistance. Ranked watches always re-evaluate on
// change (scores are global), so they cost O(query) per notification,
// and re-Add an element when its score changes.
func WatchRanked() WatchOption {
	return func(c *watchConfig) { c.ranked = true }
}

// WatchResume requests resumption from a previously delivered event
// epoch. If the index's current snapshot still carries exactly that
// epoch, the Init event is skipped (Watch.Resumed reports true) and
// the consumer's retained result set stays valid; otherwise a fresh
// Init event is delivered as usual.
func WatchResume(epoch uint64) WatchOption {
	return func(c *watchConfig) { c.resume = epoch; c.hasResume = true }
}

// Watch subscribes to live updates of pq's result set. The returned
// Watch first delivers an Init event carrying the full result at the
// current snapshot, then one incremental {add, remove, epoch} event
// per committed maintenance batch (bursts coalesce into one event).
// Works on primaries and replication followers alike; ctx cancels
// the subscription (Next also honors its own ctx).
//
// Notifications are delta-seeded: each batch's ChangeLog is condensed
// into a summary and only elements the summary can have affected are
// re-tested, so notification cost tracks the batch size, not the
// result size. Queries the summary cannot localize (rebuilds, deep
// paths, ranked watches) fall back to a full re-run + set diff, which
// is always exact.
func (ix *Index) Watch(ctx context.Context, pq *PreparedQuery, opts ...WatchOption) (*Watch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := watchConfig{maxPending: 8192}
	for _, o := range opts {
		o(&cfg)
	}
	ws := ix.watcher()
	s := ix.Snapshot()

	res := map[int32]float64{}
	var init []watch.Result
	if cfg.ranked {
		matches, err := s.eng.EvalRankedCtx(ctx, pq.q)
		if err != nil {
			return nil, err
		}
		init = make([]watch.Result, 0, len(matches))
		for _, m := range matches {
			res[m.Element] = m.Score
			init = append(init, toWatchResult(s, m.Element, m.Score))
		}
	} else {
		ids, err := s.eng.EvalCtx(ctx, pq.q)
		if err != nil {
			return nil, err
		}
		init = make([]watch.Result, 0, len(ids))
		for _, id := range ids {
			res[id] = 0
			init = append(init, toWatchResult(s, id, 0))
		}
	}

	resumed := cfg.hasResume && cfg.resume == s.Epoch()
	ses, err := ws.hub.Register(cfg.maxPending)
	if err != nil {
		return nil, err
	}
	if !resumed {
		ses.SetInitial(&watch.Event{Epoch: s.Epoch(), Add: init})
	}
	ws.add(&watchSession{ses: ses, pq: pq, ranked: cfg.ranked, fresh: true, at: s, res: res})
	go func() {
		select {
		case <-ctx.Done():
			ses.Close()
		case <-ses.Done():
		}
	}()
	return &Watch{ses: ses, resumed: resumed}, nil
}

// watchSession is the notifier-side state of one subscription: the
// snapshot the consumer is known to be at and the exact result set
// (with scores) delivered so far.
type watchSession struct {
	ses    *watch.Session
	pq     *PreparedQuery
	ranked bool
	// fresh forces a full re-run on the session's first processed
	// round: deltas consumed by that round may pre- or post-date the
	// registration snapshot, so only a re-run is guaranteed exact.
	fresh bool
	at    *Snapshot
	res   map[int32]float64
}

type stampedDelta struct {
	epoch uint64
	d     core.WatchDelta
}

// watcherState is the per-index notifier: it accumulates batch
// summaries stamped with their post-batch epoch (observe, called
// under the index write lock) and drains them in rounds (run
// goroutine), diffing each live session from its last-known snapshot
// to the current one.
type watcherState struct {
	ix  *Index
	hub *watch.Hub

	mu       sync.Mutex
	sessions []*watchSession
	pending  []stampedDelta
	lastSeen uint64
	seen     bool
	// badOrder latches when observed epochs stop increasing (poisoned
	// durable backend falls back to random epochs, or counter wrap):
	// the ≤-snapshot filter is meaningless then, so rounds consume
	// everything and every session falls back to a full re-run.
	badOrder bool

	notify chan struct{} // cap 1, coalescing
	stop   chan struct{}
	done   chan struct{}
}

// maxPendingDeltas caps the stamped-summary list; beyond it the whole
// list collapses into one summary carrying the max epoch, so the
// ≤-snapshot filter defers it until a snapshot covers all of it.
const maxPendingDeltas = 512

// watcher returns the index's notifier, starting it on first use.
func (ix *Index) watcher() *watcherState {
	if ws := ix.watch.Load(); ws != nil {
		return ws
	}
	ws := &watcherState{
		ix:     ix,
		hub:    watch.NewHub(),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if !ix.watch.CompareAndSwap(nil, ws) {
		return ix.watch.Load()
	}
	go ws.run()
	return ws
}

// observe records one committed batch's summary. Called with the
// index write lock held (ix.mu → ws.mu is the only permitted order).
// It does not signal the notifier: primaries signal right after,
// followers defer the signal to Quiesce so a buffered burst produces
// one round.
func (ws *watcherState) observe(epoch uint64, d core.WatchDelta) {
	if d.Empty() {
		return
	}
	ws.mu.Lock()
	if ws.seen && epoch <= ws.lastSeen {
		ws.badOrder = true
	}
	ws.seen = true
	ws.lastSeen = epoch
	ws.pending = append(ws.pending, stampedDelta{epoch: epoch, d: d})
	if len(ws.pending) > maxPendingDeltas {
		merged := stampedDelta{}
		for i := range ws.pending {
			if ws.pending[i].epoch > merged.epoch {
				merged.epoch = ws.pending[i].epoch
			}
			merged.d.Merge(&ws.pending[i].d)
		}
		ws.pending = append(ws.pending[:0], merged)
	}
	ws.mu.Unlock()
}

// signal wakes the notifier; coalesces with a pending wake.
func (ws *watcherState) signal() {
	select {
	case ws.notify <- struct{}{}:
	default:
	}
}

func (ws *watcherState) add(s *watchSession) {
	ws.mu.Lock()
	ws.sessions = append(ws.sessions, s)
	ws.mu.Unlock()
	ws.signal()
}

// shutdown stops the notifier goroutine and closes every session.
// Called from Index.Close after the watcher pointer is swapped out.
func (ws *watcherState) shutdown() {
	close(ws.stop)
	<-ws.done
	ws.hub.Close()
}

func (ws *watcherState) run() {
	defer close(ws.done)
	for {
		select {
		case <-ws.stop:
			return
		case <-ws.notify:
			ws.round()
		}
	}
}

// round brings every live session up to the current snapshot. The
// snapshot is taken FIRST; only summaries stamped at or before its
// epoch are consumed (newer ones stay pending for the next round) —
// consuming a summary for changes the snapshot does not contain would
// lose them forever.
func (ws *watcherState) round() {
	s := ws.ix.Snapshot()

	ws.mu.Lock()
	bad := ws.badOrder
	var d core.WatchDelta
	batches := 0
	rest := ws.pending[:0]
	for i := range ws.pending {
		if bad || ws.pending[i].epoch <= s.Epoch() {
			d.Merge(&ws.pending[i].d)
			batches++
		} else {
			rest = append(rest, ws.pending[i])
		}
	}
	ws.pending = rest
	live := ws.sessions[:0]
	for _, sess := range ws.sessions {
		if sess.ses.Active() {
			live = append(live, sess)
		}
	}
	ws.sessions = live
	sessions := append([]*watchSession(nil), live...)
	ws.mu.Unlock()

	for _, sess := range sessions {
		ws.roundSession(sess, s, &d, batches, bad)
	}
}

func (ws *watcherState) roundSession(sess *watchSession, s *Snapshot, d *core.WatchDelta, batches int, bad bool) {
	if !sess.ses.Active() {
		return
	}
	if sess.at == s || (!bad && sess.at.Epoch() == s.Epoch()) {
		return // already current; keep fresh until a real round runs
	}
	if batches < 1 {
		batches = 1
	}

	if !bad && !sess.fresh && !sess.ranked {
		add, remove, ok := s.eng.DiffEval(sess.at.eng, sess.pq.q, d, func(v int32) bool {
			_, in := sess.res[v]
			return in
		})
		if ok {
			ws.hub.CountIncremental()
			if len(add) > 0 || len(remove) > 0 {
				out := make([]watch.Result, len(add))
				for i, id := range add {
					out[i] = toWatchResult(s, id, 0)
					sess.res[id] = 0
				}
				for _, id := range remove {
					delete(sess.res, id)
				}
				sess.ses.Push(s.Epoch(), out, remove, batches)
			}
			sess.at = s
			sess.fresh = false
			return
		}
	}

	// Fallback: full re-run on the new snapshot, diffed against the
	// session's delivered result set. Always exact.
	ws.hub.CountFullRerun()
	next := map[int32]float64{}
	if sess.ranked {
		matches, err := s.eng.EvalRanked(sess.pq.q)
		if err != nil {
			// cannot produce a correct delta; force the client to
			// re-subscribe from this epoch
			sess.ses.Evict(s.Epoch())
			sess.at = s
			return
		}
		for _, m := range matches {
			next[m.Element] = m.Score
		}
	} else {
		for _, id := range s.eng.Eval(sess.pq.q) {
			next[id] = 0
		}
	}
	var add []watch.Result
	var remove []int32
	for id, score := range next {
		if old, in := sess.res[id]; !in || old != score {
			add = append(add, toWatchResult(s, id, score))
		}
	}
	for id := range sess.res {
		if _, in := next[id]; !in {
			remove = append(remove, id)
		}
	}
	if len(add) > 0 || len(remove) > 0 {
		sess.ses.Push(s.Epoch(), add, remove, batches)
	}
	sess.res = next
	sess.at = s
	sess.fresh = false
}

func toWatchResult(s *Snapshot, id int32, score float64) watch.Result {
	qr := s.result(id, score, nil)
	return watch.Result{Element: qr.Element, Doc: qr.Doc, Tag: qr.Tag, Score: score}
}
