package shardrouter

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hopi/internal/obs"
	"hopi/internal/xmlmodel"
)

// Sentinel errors mirroring the hopi package's maintenance errors, so
// the router tier classifies failures the same way a single index
// does; hopi.Router translates them back to the public sentinels.
var (
	ErrNotFound = errors.New("not found")
	ErrExists   = errors.New("already exists")
)

// errMapRace marks a query that observed a shard map older than the
// shard state it pinned (a write was publishing between the two
// loads); the query retries against the refreshed map.
var errMapRace = errors.New("shardrouter: shard map behind shard state")

// defaultBreakerWindow is how long a shard stays excluded from
// fan-out after a transport failure (WithBreakerWindow overrides):
// queries during the window fail fast with 503 instead of re-dialing
// a dead shard on every request.
const defaultBreakerWindow = 250 * time.Millisecond

// Router owns N shard primaries: it routes writes by shard key (the
// document name), fans queries out to every shard, and joins the
// cross-shard parts at the serving tier. All methods are safe for
// concurrent use; the shard map is copy-on-write behind an atomic
// pointer, and writes serialize only their map mutations — the shard
// fsync itself runs outside the router lock, so writes to different
// shards commit in parallel (this is the scaling the shard tier
// exists for).
type Router struct {
	conns    []Conn
	cur      atomic.Pointer[ShardMap]
	mapPath  string
	maxRetry int

	breakerWindow time.Duration

	// slowQuery is the slow-query log threshold: queries at or above
	// it hand their assembled QueryTrace to onSlowQuery. Negative
	// (the default) disables the log; 0 logs every query. Tracing
	// itself is on whenever the log is enabled or the caller supplied
	// a trace ID in QueryOptions.
	slowQuery   time.Duration
	onSlowQuery func(*QueryTrace)

	mu       sync.Mutex
	pending  map[string]struct{} // document names reserved mid-insert
	nextOrd  uint64
	docCount []int

	queries  atomic.Uint64
	streamed atomic.Uint64

	stepRPCs    atomic.Uint64
	closureRPCs atomic.Uint64
	deliverRPCs atomic.Uint64
	wire        WireStats

	// graphHits and graphMisses count the evaluation attempts that
	// needed the endpoint graph: found memoized for the pinned cut, or
	// assembled after a Closure round.
	graphHits   atomic.Uint64
	graphMisses atomic.Uint64

	// met is the lazily created metric registry (see Metrics).
	met   atomic.Pointer[obs.Registry]
	metMu sync.Mutex

	// prepMemo caches the map-derived endpoint skeleton per published
	// map; egMemo the last assembled endpoint graph per ranking mode
	// (index 1 carries distances), keyed by its pinned cut.
	prepMemo atomic.Pointer[egPrep]
	egMemo   [2]atomic.Pointer[egMemoEntry]

	downUntil []int64 // per-conn circuit breaker deadline, unix nanos (atomic)
}

// WireStats counts raw bytes crossing shard connections; the router
// attaches one set to every connection that supports it (HTTPConn).
type WireStats struct {
	in  atomic.Uint64
	out atomic.Uint64
}

// AddIn records bytes received from a shard.
func (w *WireStats) AddIn(n int) { w.in.Add(uint64(n)) }

// AddOut records bytes sent to a shard.
func (w *WireStats) AddOut(n int) { w.out.Add(uint64(n)) }

// Counters is the router's own serving-path instrumentation: how often
// the endpoint graph was reused, RPC volume by kind, and wire bytes
// (HTTP connections only; in-process shards move no bytes).
type Counters struct {
	// ClosureCacheHits counts evaluation attempts whose pinned cut found
	// its assembled endpoint graph — the shards' closures — memoized,
	// so no Closure round ran; ClosureCacheMisses those that ran one.
	ClosureCacheHits   uint64
	ClosureCacheMisses uint64
	StepRPCs           uint64
	ClosureRPCs        uint64
	DeliverRPCs        uint64
	WireBytesIn        uint64
	WireBytesOut       uint64
}

// Counters snapshots the router's serving-path counters without any
// shard RPCs.
func (r *Router) Counters() Counters {
	return Counters{
		ClosureCacheHits:   r.graphHits.Load(),
		ClosureCacheMisses: r.graphMisses.Load(),
		StepRPCs:           r.stepRPCs.Load(),
		ClosureRPCs:        r.closureRPCs.Load(),
		DeliverRPCs:        r.deliverRPCs.Load(),
		WireBytesIn:        r.wire.in.Load(),
		WireBytesOut:       r.wire.out.Load(),
	}
}

// Option configures New.
type Option func(*Router)

// WithMapPath persists every shard-map mutation to path (atomic
// rename) so the assignment survives router restarts.
func WithMapPath(path string) Option { return func(r *Router) { r.mapPath = path } }

// WithMaxRetries bounds how often a fresh query is retried when a
// concurrent write moves a shard's epoch mid-evaluation (default 16).
func WithMaxRetries(n int) Option { return func(r *Router) { r.maxRetry = n } }

// WithBreakerWindow sets how long a shard stays excluded from fan-out
// after a transport failure (default 250ms). Non-positive values keep
// the default.
func WithBreakerWindow(d time.Duration) Option {
	return func(r *Router) {
		if d > 0 {
			r.breakerWindow = d
		}
	}
}

// WithSlowQueryLog enables the slow-query log: every query whose wall
// time reaches threshold hands its span tree to fn (threshold 0 traces
// and reports every query; fn runs on the query's goroutine and should
// be fast — typically a log.Printf of trace.Format()). A negative
// threshold keeps the log disabled.
func WithSlowQueryLog(threshold time.Duration, fn func(*QueryTrace)) Option {
	return func(r *Router) {
		if threshold >= 0 && fn != nil {
			r.slowQuery = threshold
			r.onSlowQuery = fn
		}
	}
}

// New creates a router over one connection per shard of m.
func New(conns []Conn, m *ShardMap, opts ...Option) (*Router, error) {
	if m == nil {
		return nil, errors.New("shardrouter: nil shard map")
	}
	if len(conns) != m.NumShards {
		return nil, fmt.Errorf("shardrouter: %d connections for a %d-shard map", len(conns), m.NumShards)
	}
	r := &Router{
		conns:         conns,
		maxRetry:      16,
		breakerWindow: defaultBreakerWindow,
		slowQuery:     -1,
		pending:       map[string]struct{}{},
		nextOrd:       m.NextOrdinal,
		docCount:      make([]int, m.NumShards),
		downUntil:     make([]int64, len(conns)),
	}
	for _, e := range m.Docs {
		r.docCount[e.Shard]++
	}
	r.cur.Store(m)
	for _, o := range opts {
		o(r)
	}
	for _, c := range conns {
		if aw, ok := c.(interface{ AttachWireStats(*WireStats) }); ok {
			aw.AttachWireStats(&r.wire)
		}
	}
	// Persist the starting assignment immediately so a router restart
	// can reload it even if no mutation ever happens.
	if r.mapPath != "" {
		if err := m.Save(r.mapPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Map returns the current shard map (immutable; do not mutate).
func (r *Router) Map() *ShardMap { return r.cur.Load() }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.conns) }

// --- connection guard (circuit breaker) -------------------------------

// callConn runs f against shard i unless its breaker is open. A
// transport failure (ShardUnavailableError) opens the breaker for the
// configured window; any success closes it. Queries hitting an open
// breaker fail fast — the router cannot answer without the shard, so
// the right response is an immediate 503, not a hung fan-out.
func (r *Router) callConn(i int, f func(Conn) error) error {
	if until := atomic.LoadInt64(&r.downUntil[i]); until != 0 && time.Now().UnixNano() < until {
		return &ShardUnavailableError{Shard: r.conns[i].Name(), Err: errors.New("marked down after a recent failure")}
	}
	err := f(r.conns[i])
	var su *ShardUnavailableError
	if errors.As(err, &su) {
		atomic.StoreInt64(&r.downUntil[i], time.Now().Add(r.breakerWindow).UnixNano())
	} else {
		atomic.StoreInt64(&r.downUntil[i], 0)
	}
	return err
}

// parallel runs f for every listed shard concurrently and returns the
// highest-precedence error: token errors first (they are definitive),
// then non-retryable staleness, then epoch mismatches (the caller
// retries those), then unavailability, then anything else.
func (r *Router) parallel(idxs []int, f func(i int) error) error {
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for k, i := range idxs {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = f(i)
		}(k, i)
	}
	wg.Wait()
	var stale, staleRetry, mismatch, unavail, other error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var sv *StaleVectorError
		var em *EpochMismatchError
		var su *ShardUnavailableError
		switch {
		case errors.Is(err, ErrBadToken):
			return err
		case errors.As(err, &sv):
			if sv.Retryable {
				staleRetry = err
			} else {
				stale = err
			}
		case errors.As(err, &em):
			mismatch = err
		case errors.As(err, &su):
			unavail = err
		default:
			other = err
		}
	}
	for _, err := range []error{stale, staleRetry, mismatch, unavail, other} {
		if err != nil {
			return err
		}
	}
	return nil
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- element specs ----------------------------------------------------

// splitSpec splits an element spec into its document name and the
// element part: "doc" (root), "doc:idx", or "doc#anchor". The router
// only needs the document name for routing; the owning shard resolves
// the element part.
func splitSpec(spec string) (doc string, rest string, byAnchor bool, err error) {
	if i := strings.LastIndexByte(spec, '#'); i >= 0 {
		return spec[:i], spec[i+1:], true, nil
	}
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		if _, err := strconv.Atoi(spec[i+1:]); err != nil {
			return "", "", false, fmt.Errorf("bad element spec %q: %v", spec, err)
		}
		return spec[:i], spec[i+1:], false, nil
	}
	return spec, "", false, nil
}

// --- writes -----------------------------------------------------------

// InsertResult reports a routed document insertion.
type InsertResult struct {
	Shard int `json:"shard"`
	// Doc is the shard-local document index.
	Doc int `json:"doc"`
	// Ordinal is the document's global insertion ordinal.
	Ordinal uint64 `json:"ordinal"`
	// Unresolved lists link targets ("doc#anchor") found on no shard.
	Unresolved []string `json:"unresolved,omitempty"`
}

// InsertXML parses an XML document, places it on the least-loaded
// shard, and registers any links to documents on other shards as
// router-owned cross links. The shard's fsync happens outside the
// router lock: concurrent inserts to different shards commit in
// parallel.
func (r *Router) InsertXML(ctx context.Context, name string, data []byte) (*InsertResult, error) {
	if name == "" {
		return nil, errors.New("shardrouter: document name required")
	}
	_, pending, err := xmlmodel.ParseDocument(name, data)
	if err != nil {
		return nil, err
	}

	// Reserve the name and an ordinal, pick the shard — short critical
	// section, no I/O.
	r.mu.Lock()
	m := r.cur.Load()
	if _, ok := m.Docs[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("document %q: %w", name, ErrExists)
	}
	if _, ok := r.pending[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("document %q: %w", name, ErrExists)
	}
	shard := 0
	for s := 1; s < len(r.docCount); s++ {
		if r.docCount[s] < r.docCount[shard] {
			shard = s
		}
	}
	ord := r.nextOrd
	r.nextOrd++
	r.pending[name] = struct{}{}
	r.mu.Unlock()

	release := func() {
		r.mu.Lock()
		delete(r.pending, name)
		r.mu.Unlock()
	}

	var res *WriteResult
	err = r.callConn(shard, func(c Conn) error {
		var werr error
		res, werr = c.Write(ctx, &WriteRequest{Op: OpInsertDoc, Name: name, XML: string(data)})
		return werr
	})
	if err != nil {
		release()
		return nil, err
	}

	// Links the shard could not resolve locally may target documents on
	// other shards: resolve them there and register cross links.
	var crossLinks []CrossLink
	resolvedCross := map[string]bool{}
	var unresolved []string
	for _, p := range pending {
		te, ok := m.Docs[p.TargetDoc]
		if !ok || te.Shard == shard {
			continue // local or unknown: the shard's own result covers it
		}
		spec := p.TargetDoc + "#" + p.Anchor
		rr, rerr := r.resolveOne(ctx, te.Shard, spec)
		if rerr != nil {
			release()
			return nil, rerr
		}
		if !rr.OK {
			continue // reported through the shard's unresolved list
		}
		crossLinks = append(crossLinks, CrossLink{
			FromDoc: name, FromLocal: p.FromLocal,
			ToDoc: p.TargetDoc, ToLocal: rr.Local,
		})
		resolvedCross[spec] = true
	}
	for _, u := range res.Unresolved {
		if !resolvedCross[u] {
			unresolved = append(unresolved, u)
		}
	}

	// Publish: clone the latest map (it may have moved since the
	// reservation), add the document and its cross links, bump the
	// version, persist, swap.
	r.mu.Lock()
	m2 := r.cur.Load().Clone()
	m2.Docs[name] = DocEntry{Shard: shard, Ordinal: ord}
	if r.nextOrd > m2.NextOrdinal {
		m2.NextOrdinal = r.nextOrd
	}
	m2.CrossLinks = append(m2.CrossLinks, crossLinks...)
	m2.Version++
	perr := r.persistLocked(m2)
	r.cur.Store(m2)
	r.docCount[shard]++
	delete(r.pending, name)
	r.mu.Unlock()
	if perr != nil {
		return nil, perr
	}
	return &InsertResult{Shard: shard, Doc: res.Doc, Ordinal: ord, Unresolved: unresolved}, nil
}

// DeleteDocument removes a document from its shard and drops every
// cross link touching it.
func (r *Router) DeleteDocument(ctx context.Context, name string) error {
	m := r.cur.Load()
	e, ok := m.Docs[name]
	if !ok {
		return fmt.Errorf("document %q: %w", name, ErrNotFound)
	}
	err := r.callConn(e.Shard, func(c Conn) error {
		_, werr := c.Write(ctx, &WriteRequest{Op: OpDeleteDoc, Name: name})
		return werr
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	m2 := r.cur.Load().Clone()
	delete(m2.Docs, name)
	kept := m2.CrossLinks[:0]
	for _, l := range m2.CrossLinks {
		if l.FromDoc != name && l.ToDoc != name {
			kept = append(kept, l)
		}
	}
	m2.CrossLinks = kept
	m2.Version++
	perr := r.persistLocked(m2)
	r.cur.Store(m2)
	r.docCount[e.Shard]--
	r.mu.Unlock()
	return perr
}

// InsertLink adds a link between two elements addressed by specs. The
// source must be "doc" or "doc:idx" (anchors address targets, not
// sources — same rule as the single-index HTTP API); the target may
// also be "doc#anchor". Same-shard links go to the owning shard;
// cross-shard links are registered in the router's table (the shard
// map version bump retires outstanding resume tokens, mirroring the
// single-index rule that any write does).
func (r *Router) InsertLink(ctx context.Context, from, to string) error {
	fromDoc, _, byAnchor, err := splitSpec(from)
	if err != nil {
		return err
	}
	if byAnchor {
		return errors.New("shardrouter: link source must be doc or doc:idx, not an anchor")
	}
	toDoc, _, _, err := splitSpec(to)
	if err != nil {
		return err
	}
	m := r.cur.Load()
	fe, ok := m.Docs[fromDoc]
	if !ok {
		return fmt.Errorf("document %q: %w", fromDoc, ErrNotFound)
	}
	te, ok := m.Docs[toDoc]
	if !ok {
		return fmt.Errorf("document %q: %w", toDoc, ErrNotFound)
	}
	if fe.Shard == te.Shard {
		return r.callConn(fe.Shard, func(c Conn) error {
			_, werr := c.Write(ctx, &WriteRequest{Op: OpInsertLink, From: from, To: to})
			return werr
		})
	}
	fr, err := r.resolveOne(ctx, fe.Shard, from)
	if err != nil {
		return err
	}
	if !fr.OK {
		return fmt.Errorf("element %q: %w", from, ErrNotFound)
	}
	tr, err := r.resolveOne(ctx, te.Shard, to)
	if err != nil {
		return err
	}
	if !tr.OK {
		return fmt.Errorf("element %q: %w", to, ErrNotFound)
	}
	r.mu.Lock()
	m2 := r.cur.Load().Clone()
	// Duplicates are appended, exactly as the collection's link list
	// stores them; a self link cannot arise here (one element lives on
	// one shard).
	m2.CrossLinks = append(m2.CrossLinks, CrossLink{
		FromDoc: fromDoc, FromLocal: fr.Local,
		ToDoc: toDoc, ToLocal: tr.Local,
	})
	m2.Version++
	perr := r.persistLocked(m2)
	r.cur.Store(m2)
	r.mu.Unlock()
	return perr
}

// DeleteLink removes a link previously added with InsertLink: routed
// to the shard when both endpoints share one, removed from the
// router's table (first match, as in the collection) when not.
func (r *Router) DeleteLink(ctx context.Context, from, to string) error {
	fromDoc, _, _, err := splitSpec(from)
	if err != nil {
		return err
	}
	toDoc, _, _, err := splitSpec(to)
	if err != nil {
		return err
	}
	m := r.cur.Load()
	fe, ok := m.Docs[fromDoc]
	if !ok {
		return fmt.Errorf("document %q: %w", fromDoc, ErrNotFound)
	}
	te, ok := m.Docs[toDoc]
	if !ok {
		return fmt.Errorf("document %q: %w", toDoc, ErrNotFound)
	}
	if fe.Shard == te.Shard {
		return r.callConn(fe.Shard, func(c Conn) error {
			_, werr := c.Write(ctx, &WriteRequest{Op: OpDeleteLink, From: from, To: to})
			return werr
		})
	}
	fr, err := r.resolveOne(ctx, fe.Shard, from)
	if err != nil {
		return err
	}
	tr, err := r.resolveOne(ctx, te.Shard, to)
	if err != nil {
		return err
	}
	if !fr.OK || !tr.OK {
		return fmt.Errorf("link %s -> %s: %w", from, to, ErrNotFound)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m2 := r.cur.Load().Clone()
	found := -1
	for i, l := range m2.CrossLinks {
		if l.FromDoc == fromDoc && l.FromLocal == fr.Local && l.ToDoc == toDoc && l.ToLocal == tr.Local {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("link %s -> %s: %w", from, to, ErrNotFound)
	}
	m2.CrossLinks = append(m2.CrossLinks[:found], m2.CrossLinks[found+1:]...)
	m2.Version++
	perr := r.persistLocked(m2)
	r.cur.Store(m2)
	return perr
}

func (r *Router) resolveOne(ctx context.Context, shard int, spec string) (ResolveResult, error) {
	var out ResolveResult
	err := r.callConn(shard, func(c Conn) error {
		rs, rerr := c.Resolve(ctx, []string{spec})
		if rerr != nil {
			return rerr
		}
		if len(rs) != 1 {
			return fmt.Errorf("shard %s: resolve returned %d results for 1 spec", c.Name(), len(rs))
		}
		out = rs[0]
		return nil
	})
	return out, err
}

func (r *Router) persistLocked(m *ShardMap) error {
	if r.mapPath == "" {
		return nil
	}
	return m.Save(r.mapPath)
}

// --- readiness --------------------------------------------------------

// Readiness is the tier's /readyz answer: ready when every shard is.
type Readiness struct {
	Ready  bool         `json:"ready"`
	Shards []ShardReady `json:"shards"`
}

// ShardReady is one shard's readiness; Why says what keeps it unready.
type ShardReady struct {
	Name  string `json:"name"`
	Ready bool   `json:"ready"`
	Why   string `json:"why,omitempty"`
}

// Ready probes every shard in parallel. A shard that cannot be reached
// or reports itself unready makes the tier unready.
func (r *Router) Ready(ctx context.Context) *Readiness {
	out := &Readiness{Ready: true, Shards: make([]ShardReady, len(r.conns))}
	var wg sync.WaitGroup
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr := ShardReady{Name: r.conns[i].Name(), Ready: true}
			if err := r.callConn(i, func(c Conn) error { return c.Ready(ctx) }); err != nil {
				sr.Ready, sr.Why = false, err.Error()
			}
			out.Shards[i] = sr
		}(i)
	}
	wg.Wait()
	for _, sr := range out.Shards {
		out.Ready = out.Ready && sr.Ready
	}
	return out
}

// sortResults orders merged results canonically: unranked ascending by
// (ordinal, local) — the sharded equivalent of ascending global
// element ID — and ranked by (score desc, ordinal asc, local asc),
// matching the single engine's (score desc, element asc).
func sortResults(out []Result, ranked bool) {
	sort.Slice(out, func(i, j int) bool {
		if ranked && out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Ordinal != out[j].Ordinal {
			return out[i].Ordinal < out[j].Ordinal
		}
		return out[i].Local < out[j].Local
	})
}
