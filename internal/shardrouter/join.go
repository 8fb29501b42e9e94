package shardrouter

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hopi/internal/graph"
	"hopi/internal/psg"
	"hopi/internal/query"
)

// QueryOptions selects ranking, truncation, and resumption for a
// router query — the same knobs as the single-index QueryCtx options.
type QueryOptions struct {
	Ranked bool
	Limit  int
	Resume string
	// Trace, when set, traces the query under this ID even when the
	// slow-query log is off (serving tiers pass the request's inbound
	// X-Hopi-Trace through here). Empty lets the router mint an ID
	// itself when tracing is on.
	Trace string
}

// Result is one globally merged match. Elements are addressed by
// (document name, local index) — the sharded equivalent of a global
// element ID — plus the document's insertion ordinal, which defines
// the canonical order.
type Result struct {
	Doc     string  `json:"doc"`
	Ordinal uint64  `json:"-"`
	Local   int32   `json:"local"`
	Shard   int     `json:"shard"`
	Tag     string  `json:"tag"`
	Score   float64 `json:"score,omitempty"`
}

// Page is one page of router query results.
type Page struct {
	Results []Result
	// NextToken is the vector resume token for the following page;
	// empty when the result set is exhausted or no limit was set.
	NextToken string
}

// Query evaluates a path expression across all shards and merges the
// answers: every step runs shard-locally through the shards' own
// engines, and for // steps the router joins the cross-shard paths
// over the endpoint graph of its cross-link table (the serving-tier
// analogue of the paper's partition skeleton graph). Fresh queries pin
// every shard's snapshot on first contact and retry bounded-many times
// when a concurrent write moves a shard mid-evaluation; resumed
// queries pin the token's epochs exactly and classify any divergence
// as a token error instead.
//
// Each RPC round has one path. The seed round runs the first step on
// every shard and pins the cut. The first query on a new cut whose
// later // steps can cross shards adds a closure round, to the shards
// holding both in- and out-endpoints; the router then memoizes the
// assembled endpoint graph for that cut. Every further step is a step
// round over the shards with a frontier, and a // step whose probes
// reach another shard's in-endpoints adds a deliver round to those
// shards. Shards memoize their closures and delivery tables per
// snapshot, so on a warm cut these rounds only look up and compose:
// //a//b costs at most three rounds, and each further // step two.
func (r *Router) Query(ctx context.Context, expr string, opt QueryOptions) (*Page, error) {
	q, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	hash := queryHash(q.Canonical())
	var tok *vectorToken
	if opt.Resume != "" {
		t, err := decodeVectorToken(opt.Resume)
		if err != nil {
			return nil, err
		}
		if len(t.epochs) != len(r.conns) {
			return nil, fmt.Errorf("%w: issued for a different shard layout", ErrBadToken)
		}
		if t.hash != hash {
			return nil, fmt.Errorf("%w: issued for a different query", ErrBadToken)
		}
		if t.ranked != opt.Ranked {
			return nil, fmt.Errorf("%w: issued for a different ranking mode", ErrBadToken)
		}
		tok = &t
	}
	// Trace whenever the caller supplied an ID or the slow-query log
	// is armed; emit fires on every exit path and hands the assembled
	// span tree to the slow-query hook when the query was slow enough
	// (failed queries count — they are the slowest kind).
	var tr *QueryTrace
	if opt.Trace != "" || r.slowQuery >= 0 {
		id := opt.Trace
		if id == "" {
			id = NewTraceID()
		}
		tr = &QueryTrace{TraceID: id, Expr: expr, Ranked: opt.Ranked, Plan: planOf(q)}
	}
	start := time.Now()
	emit := func(results int) {
		if tr == nil {
			return
		}
		tr.finish(start, results)
		if r.onSlowQuery != nil && r.slowQuery >= 0 && time.Duration(tr.WallUs)*time.Microsecond >= r.slowQuery {
			r.onSlowQuery(tr)
		}
	}
	var lastErr error
	for attempt := 0; attempt <= r.maxRetry; attempt++ {
		if err := ctx.Err(); err != nil {
			emit(0)
			return nil, err
		}
		m := r.cur.Load()
		if tok != nil && tok.mapVersion != m.Version {
			emit(0)
			return nil, &StaleVectorError{TokenEpoch: tok.mapVersion, ShardEpoch: m.Version}
		}
		page, err := r.evalOnce(ctx, m, q, hash, opt, tok, tr)
		if err == nil {
			r.queries.Add(1)
			r.streamed.Add(uint64(len(page.Results)))
			emit(len(page.Results))
			return page, nil
		}
		lastErr = err
		var em *EpochMismatchError
		if errors.As(err, &em) && tok == nil {
			continue // a write landed mid-query; re-pin and re-evaluate
		}
		if errors.Is(err, errMapRace) {
			continue
		}
		emit(0)
		return nil, err
	}
	emit(0)
	// Writes kept landing faster than the query could pin a consistent
	// cut — either a shard moved mid-evaluation every attempt or the
	// map publish kept trailing the shard acks; surface as transient so
	// clients back off and retry.
	var em *EpochMismatchError
	if errors.As(lastErr, &em) {
		return nil, &ShardUnavailableError{Shard: em.Shard, Err: fmt.Errorf("query retried %d times against concurrent writes", r.maxRetry)}
	}
	if errors.Is(lastErr, errMapRace) {
		return nil, &ShardUnavailableError{Err: fmt.Errorf("query retried %d times against concurrent writes: %v", r.maxRetry, lastErr)}
	}
	return nil, lastErr
}

// planOf renders a parsed query's step decomposition — the distributed
// plan the fan-out follows, one round per step — for the slow-query
// log's plan summary.
func planOf(q *query.Query) string {
	parts := make([]string, len(q.Steps))
	for i, st := range q.Steps {
		parts[i] = axisStr(st.Axis) + st.Tag
	}
	return strings.Join(parts, " → ")
}

func axisStr(a query.Axis) string {
	if a == query.AxisChild {
		return "/"
	}
	return "//"
}

// attempt is one evaluation attempt against a fixed shard map and the
// cut it pins. Its methods are the phases the trace spans name: seed,
// closure, one step per later location step (probe, route, deliver),
// and merge. tr, when non-nil, collects one TraceSpan per shard RPC
// (its methods are nil-safe, so untraced queries pay nothing).
type attempt struct {
	r   *Router
	ctx context.Context
	m   *ShardMap
	opt QueryOptions
	tok *vectorToken
	tr  *QueryTrace

	// expected and scopes are the cut, one entry per shard: a resume's
	// token epochs up front, what the seed round observed afterwards.
	expected, scopes []uint64
	// retain lets the rounds after the seed of a fresh query be served
	// from a shard's retained snapshots, so writes landing mid-evaluation
	// do not invalidate the query. Resumes must not — epoch equality IS
	// the token staleness check.
	retain bool
}

// evalOnce runs one full evaluation attempt against a fixed shard map
// and a consistent per-shard snapshot cut.
func (r *Router) evalOnce(ctx context.Context, m *ShardMap, q *query.Query, hash uint32, opt QueryOptions, tok *vectorToken, tr *QueryTrace) (*Page, error) {
	tr.attempt()
	K := len(r.conns)
	a := &attempt{
		r: r, ctx: ctx, m: m, opt: opt, tok: tok, tr: tr,
		expected: make([]uint64, K), scopes: make([]uint64, K),
		retain: tok == nil,
	}
	if tok != nil {
		copy(a.expected, tok.epochs)
	}
	last := len(q.Steps) - 1
	frontiers, err := a.seed(q.Steps[0], last == 0)
	if err != nil {
		return nil, err
	}
	eg, err := a.endpointGraph(q)
	if err != nil {
		return nil, err
	}
	for si := 1; si <= last; si++ {
		if frontiers, err = a.step(si, q.Steps[si], frontiers, eg, si == last); err != nil {
			return nil, err
		}
	}
	return a.merge(frontiers, hash)
}

// classify turns a shard's epoch-mismatch answer into the resume token
// verdict: scope first (a different index identity is a bad token
// outright, never a retryable stall), then staleness — retryable
// exactly when the shard sits *behind* the token on a sequence epoch.
// Fresh queries keep the mismatch; Query retries them.
func (a *attempt) classify(i int, err error) error {
	var em *EpochMismatchError
	if a.tok == nil || !errors.As(err, &em) {
		return err
	}
	if a.tok.scopes[i] != em.Scope {
		return fmt.Errorf("%w: issued by a different index", ErrBadToken)
	}
	return &StaleVectorError{
		Shard:      a.r.conns[i].Name(),
		TokenEpoch: a.tok.epochs[i],
		ShardEpoch: em.Current,
		Retryable:  em.SeqEpoch && em.Current < a.tok.epochs[i],
	}
}

// round runs one RPC round: call against every listed shard in
// parallel, each through the shard's circuit breaker, counted in n,
// its error classified and its span recorded under phase.
func (a *attempt) round(idxs []int, phase, rpc string, n *atomic.Uint64, call func(i int, c Conn) (*Span, error)) error {
	return a.r.parallel(idxs, func(i int) error {
		return a.r.callConn(i, func(c Conn) error {
			n.Add(1)
			t0 := time.Now()
			sp, err := call(i, c)
			if err != nil {
				err = a.classify(i, err)
			}
			a.tr.add(phase, rpc, c.Name(), t0, sp, err)
			return err
		})
	})
}

// seed runs the first step on every shard. It is also the round that
// pins the whole cut (fresh queries) or verifies the whole token
// (resumes), including shards the query's frontier never revisits.
func (a *attempt) seed(st query.Step, wantMeta bool) ([][]FrontierElem, error) {
	frontiers := make([][]FrontierElem, len(a.r.conns))
	err := a.round(allShards(len(a.r.conns)), "seed", "step", &a.r.stepRPCs, func(i int, c Conn) (*Span, error) {
		resp, err := c.Step(a.ctx, &StepRequest{
			Epoch: a.expected[i], Pin: a.tok != nil,
			Ranked: a.opt.Ranked, Seed: true,
			Axis: axisStr(st.Axis), Tag: st.Tag,
			WantMeta: wantMeta, Trace: a.tr.ID(),
		})
		if err != nil {
			return nil, err
		}
		if a.tok != nil && a.tok.scopes[i] != resp.Scope {
			return resp.Span, fmt.Errorf("%w: issued by a different index", ErrBadToken)
		}
		a.expected[i], a.scopes[i] = resp.Epoch, resp.Scope
		frontiers[i] = resp.Frontier
		return resp.Span, nil
	})
	return frontiers, err
}

// endpointGraph returns the pinned cut's endpoint graph, or nil when
// no step after the seed can cross shards. The last graph per ranking
// mode is memoized under its cut, so the closure round runs only when
// an attempt meets a new cut; shards whose snapshot did not move answer
// it from their own memo.
func (a *attempt) endpointGraph(q *query.Query) (*endpointGraph, error) {
	crosses := false
	for _, st := range q.Steps[1:] {
		crosses = crosses || st.Axis == query.AxisDescendant
	}
	if !crosses || len(a.m.CrossLinks) == 0 {
		return nil, nil
	}
	pre := a.r.prep(a.m)
	withDist := a.opt.Ranked
	memo := &a.r.egMemo[0]
	if withDist {
		memo = &a.r.egMemo[1]
	}
	key := cutKey(a.m, pre.need, a.expected, a.scopes)
	if e := memo.Load(); e != nil && e.key == key {
		a.r.graphHits.Add(1)
		return e.eg, nil
	}
	a.r.graphMisses.Add(1)
	closures := make([][]uint32, len(a.r.conns))
	err := a.round(pre.need, "closure", "closure", &a.r.closureRPCs, func(s int, c Conn) (*Span, error) {
		resp, err := c.Closure(a.ctx, &ClosureRequest{
			Epoch: a.expected[s], Retain: a.retain, WithDist: withDist,
			From: pre.inSpecs[s], To: pre.outSpecs[s], Trace: a.tr.ID(),
		})
		if err != nil {
			return nil, err
		}
		if want := len(pre.inSpecs[s]) * len(pre.outSpecs[s]); len(resp.Dist) != want {
			return resp.Span, fmt.Errorf("shard %s: closure matrix size %d, want %d", c.Name(), len(resp.Dist), want)
		}
		closures[s] = resp.Dist
		return resp.Span, nil
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	eg := assembleEndpointGraph(pre, closures)
	memo.Store(&egMemoEntry{key: key, eg: eg})
	a.tr.add("closure", "assemble", RouterSpanShard, t0, nil, nil)
	return eg, nil
}

// step runs location step si after the seed: a step round over the
// shards with a frontier and, for a // step when cross links exist,
// the route over the endpoint graph plus a deliver round to the shards
// whose in-endpoints it reached. Child steps never cross shards:
// parent-child edges live inside one document, and documents are
// atomic to a shard.
func (a *attempt) step(si int, st query.Step, frontiers [][]FrontierElem, eg *endpointGraph, wantMeta bool) ([][]FrontierElem, error) {
	axis := axisStr(st.Axis)
	phase := fmt.Sprintf("step%d:%s%s", si, axis, st.Tag)
	cross := eg != nil && st.Axis == query.AxisDescendant
	next := make([][]FrontierElem, len(frontiers))
	outArr := make([]map[string][]Arrival, len(frontiers))
	err := a.round(nonEmpty(frontiers), phase, "step", &a.r.stepRPCs, func(i int, c Conn) (*Span, error) {
		req := &StepRequest{
			Epoch: a.expected[i], Pin: true, Retain: a.retain, Ranked: a.opt.Ranked,
			Axis: axis, Tag: st.Tag, Frontier: frontiers[i],
			WantMeta: wantMeta, Trace: a.tr.ID(),
		}
		if cross {
			req.ProbeOut = eg.pre.outSpecs[i]
		}
		resp, err := c.Step(a.ctx, req)
		if err != nil {
			return nil, err
		}
		next[i], outArr[i] = resp.Frontier, resp.Out
		return resp.Span, nil
	})
	if err != nil || !cross {
		return next, err
	}

	t0 := time.Now()
	inArr := eg.route(outArr, a.opt.Ranked)
	a.tr.add(phase, "route", RouterSpanShard, t0, nil, nil)
	var reached []int
	for i, in := range inArr {
		if len(in) > 0 {
			reached = append(reached, i)
		}
	}
	err = a.round(reached, phase, "deliver", &a.r.deliverRPCs, func(i int, c Conn) (*Span, error) {
		resp, err := c.Deliver(a.ctx, &DeliverRequest{
			Epoch: a.expected[i], Retain: a.retain, Ranked: a.opt.Ranked,
			Tag: st.Tag, In: inArr[i], WantMeta: wantMeta, Trace: a.tr.ID(),
		})
		if err != nil {
			return nil, err
		}
		next[i] = mergeFrontier(next[i], resp.Matches)
		return resp.Span, nil
	})
	return next, err
}

// merge attaches ordinals from the map, sorts into the canonical
// order, and cuts the page — with its resume token — at the limit. A
// document the map does not know yet means a write is publishing
// between the map load and the shard state; Query retries on it.
func (a *attempt) merge(frontiers [][]FrontierElem, hash uint32) (*Page, error) {
	var all []Result
	for i, fr := range frontiers {
		for _, fe := range fr {
			e, ok := a.m.Docs[fe.Doc]
			if !ok {
				return nil, fmt.Errorf("%w: document %q", errMapRace, fe.Doc)
			}
			all = append(all, Result{
				Doc: fe.Doc, Ordinal: e.Ordinal, Local: fe.Local,
				Shard: i, Tag: fe.Tag, Score: fe.Score,
			})
		}
	}
	sortResults(all, a.opt.Ranked)
	if a.tok != nil && a.tok.hasAfter {
		all = skipAfter(all, a.tok, a.opt.Ranked)
	}
	page := &Page{Results: all}
	if a.opt.Limit > 0 && len(all) > a.opt.Limit {
		page.Results = all[:a.opt.Limit]
		lastR := page.Results[a.opt.Limit-1]
		t := vectorToken{
			hash: hash, ranked: a.opt.Ranked, mapVersion: a.m.Version,
			scopes: a.scopes, epochs: a.expected,
			hasAfter: true, afterOrd: lastR.Ordinal, afterLocal: lastR.Local, afterScore: lastR.Score,
		}
		page.NextToken = t.encode()
	}
	return page, nil
}

// skipAfter drops everything at or before the token's after-position
// in the canonical order, so the next page starts exactly where the
// previous one stopped.
func skipAfter(all []Result, tok *vectorToken, ranked bool) []Result {
	isAfter := func(r Result) bool {
		if ranked {
			if r.Score != tok.afterScore {
				return r.Score < tok.afterScore
			}
		}
		if r.Ordinal != tok.afterOrd {
			return r.Ordinal > tok.afterOrd
		}
		return r.Local > tok.afterLocal
	}
	i := sort.Search(len(all), func(i int) bool { return isAfter(all[i]) })
	return all[i:]
}

func nonEmpty(frontiers [][]FrontierElem) []int {
	var out []int
	for i, f := range frontiers {
		if len(f) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// mergeFrontier unions the shard-local next frontier with the matches
// delivered through cross-shard paths, keeping the max score per
// element (both are maxima over path sets; the union's max is the max
// over the united set, which is exactly the single-index value).
func mergeFrontier(local, cross []FrontierElem) []FrontierElem {
	if len(cross) == 0 {
		return local
	}
	byID := make(map[int32]FrontierElem, len(local)+len(cross))
	for _, fe := range local {
		byID[fe.ID] = fe
	}
	for _, fe := range cross {
		if ex, ok := byID[fe.ID]; !ok || fe.Score > ex.Score {
			byID[fe.ID] = fe
		}
	}
	out := make([]FrontierElem, 0, len(byID))
	for _, fe := range byID {
		out = append(out, fe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- endpoint graph ---------------------------------------------------

type epKey struct {
	doc   string
	local int32
}

// hEdge is one weighted endpoint-graph edge.
type hEdge struct {
	from, to int32
	w        uint32
}

// egPrep is the map-derived, epoch-independent half of the endpoint
// graph: the node set (one per cross-link endpoint), the weight-1
// cross edges, and the per-shard endpoint partitions (in/out specs
// and nodes). It depends only on the shard map, so it is memoized per
// published map and shared by every query and attempt against it.
type egPrep struct {
	m *ShardMap // identity for the memo

	keys  []epKey
	specs []string
	shard []int
	isOut []bool
	isIn  []bool
	cross []hEdge

	outSpecs [][]string // per shard: out-endpoint specs (ProbeOut, closure To)
	outNode  map[string]int32
	outNodes [][]int32  // per shard: out-endpoint nodes
	inNodes  [][]int32  // per shard: in-endpoint nodes
	inSpecs  [][]string // per shard: in-endpoint specs (closure From)
	need     []int      // shards with both in- and out-endpoints
}

func (r *Router) prep(m *ShardMap) *egPrep {
	if p := r.prepMemo.Load(); p != nil && p.m == m {
		return p
	}
	p := prepareEndpoints(m, len(r.conns))
	r.prepMemo.Store(p)
	return p
}

func prepareEndpoints(m *ShardMap, K int) *egPrep {
	pre := &egPrep{
		m:        m,
		outSpecs: make([][]string, K),
		outNode:  map[string]int32{},
		outNodes: make([][]int32, K),
		inNodes:  make([][]int32, K),
		inSpecs:  make([][]string, K),
	}
	idx := map[epKey]int32{}
	addNode := func(k epKey, shard int) int32 {
		if n, ok := idx[k]; ok {
			return n
		}
		n := int32(len(pre.keys))
		idx[k] = n
		pre.keys = append(pre.keys, k)
		pre.specs = append(pre.specs, fmt.Sprintf("%s:%d", k.doc, k.local))
		pre.shard = append(pre.shard, shard)
		return n
	}
	mark := func(flags *[]bool, n int32) {
		for int(n) >= len(*flags) {
			*flags = append(*flags, false)
		}
		(*flags)[n] = true
	}
	for _, l := range m.CrossLinks {
		fe, okF := m.Docs[l.FromDoc]
		te, okT := m.Docs[l.ToDoc]
		if !okF || !okT {
			continue // torn map entry; harmless to skip, the link's doc is gone
		}
		f := addNode(epKey{l.FromDoc, l.FromLocal}, fe.Shard)
		t := addNode(epKey{l.ToDoc, l.ToLocal}, te.Shard)
		mark(&pre.isOut, f)
		mark(&pre.isIn, t)
		pre.cross = append(pre.cross, hEdge{f, t, 1})
	}
	n := len(pre.keys)
	for len(pre.isOut) < n {
		pre.isOut = append(pre.isOut, false)
	}
	for len(pre.isIn) < n {
		pre.isIn = append(pre.isIn, false)
	}
	for ni := 0; ni < n; ni++ {
		s := pre.shard[ni]
		if pre.isIn[ni] {
			pre.inNodes[s] = append(pre.inNodes[s], int32(ni))
			pre.inSpecs[s] = append(pre.inSpecs[s], pre.specs[ni])
		}
		if pre.isOut[ni] {
			pre.outNodes[s] = append(pre.outNodes[s], int32(ni))
			pre.outSpecs[s] = append(pre.outSpecs[s], pre.specs[ni])
			pre.outNode[pre.specs[ni]] = int32(ni)
		}
	}
	for s := 0; s < K; s++ {
		if len(pre.inNodes[s]) > 0 && len(pre.outNodes[s]) > 0 {
			pre.need = append(pre.need, s)
		}
	}
	return pre
}

// endpointGraph is the serving-tier skeleton graph: one node per
// cross-link endpoint element, cross links as weight-1 edges, and
// shard-local target→source closure edges weighted by the shards' own
// shortest distances. It is the same shape as the build-time PSG
// (internal/psg), which is why the PSG's Dijkstra serves as its
// shortest-path engine for ranked queries. An assembled graph is
// immutable and memoized per pinned cut (see attempt.endpointGraph).
// Unranked routing needs no distances at all: one multi-source
// traversal per // step. Ranked routing memoizes per-source Dijkstra
// results inside the graph, so repeated ranked queries against an
// unchanged cut pay each source's Dijkstra once.
type endpointGraph struct {
	pre *egPrep
	g   *psg.PSG

	mu       sync.Mutex
	shortest map[int32]*shortestEntry
}

type shortestEntry struct {
	dist       []uint32
	properSelf uint32
}

type egMemoEntry struct {
	key string
	eg  *endpointGraph
}

// cutKey identifies what an assembled endpoint graph depends on: the
// map version (its cross edges) and the needed shards' snapshots (their
// closures).
func cutKey(m *ShardMap, need []int, epochs, scopes []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", m.Version)
	for _, s := range need {
		fmt.Fprintf(&b, "|%d:%d:%d", s, scopes[s], epochs[s])
	}
	return b.String()
}

// assembleEndpointGraph combines the map-derived skeleton with the
// pinned cut's closure matrices (row-major in-by-out, per shard) into
// the routable graph. Pure computation — every RPC has already
// happened.
func assembleEndpointGraph(pre *egPrep, closures [][]uint32) *endpointGraph {
	var local []hEdge
	for _, s := range pre.need {
		dist := closures[s]
		ins, outs := pre.inNodes[s], pre.outNodes[s]
		for i, ni := range ins {
			for j, nj := range outs {
				if ni == nj {
					continue // same element: same node, no edge needed
				}
				d := dist[i*len(outs)+j]
				if d == graph.InfDist {
					continue
				}
				local = append(local, hEdge{ni, nj, d})
			}
		}
	}
	return newEndpointGraph(pre, pre.cross, local)
}

// newEndpointGraph builds the routable graph over pre's nodes from
// edge lists; of parallel edges, the lightest sets the weight.
func newEndpointGraph(pre *egPrep, edgeLists ...[]hEdge) *endpointGraph {
	n := len(pre.keys)
	s := &psg.PSG{
		Index:    make(map[int32]int32, n),
		G:        graph.NewDigraph(n),
		IsSource: pre.isOut,
		IsTarget: pre.isIn,
		EdgeDist: map[[2]int32]uint32{},
	}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, int32(i))
		s.Index[int32(i)] = int32(i)
	}
	for _, es := range edgeLists {
		for _, e := range es {
			s.G.AddEdge(e.from, e.to)
			key := [2]int32{e.from, e.to}
			if old, ok := s.EdgeDist[key]; !ok || e.w < old {
				s.EdgeDist[key] = e.w
			}
		}
	}
	return &endpointGraph{pre: pre, g: s, shortest: map[int32]*shortestEntry{}}
}

// shortestFrom memoizes ranked routing's per-source Dijkstra results
// (and the proper self-distance around genuine cycles) for the graph's
// lifetime; the graph is shared across queries pinned to the same cut,
// so each out-endpoint pays its Dijkstra once per cut, not once per
// query.
func (eg *endpointGraph) shortestFrom(node int32) *shortestEntry {
	eg.mu.Lock()
	if e, ok := eg.shortest[node]; ok {
		eg.mu.Unlock()
		return e
	}
	eg.mu.Unlock()

	dist := psg.ShortestFrom(eg.g, node)
	// Dijkstra's dist[src] is the empty path; the proper (length
	// ≥ 1) self-distance goes around a genuine cycle: min over
	// incoming edges u→src of dist[u]+w. Without it, a cross-shard
	// cycle back to the same endpoint — the only way //a//a
	// self-matches across shards — would be lost (or worse, the
	// empty path would fake one).
	properSelf := graph.InfDist
	for _, u := range eg.g.G.Pred(node) {
		if dist[u] == graph.InfDist {
			continue
		}
		if d := dist[u] + eg.g.EdgeDist[[2]int32{u, node}]; d < properSelf {
			properSelf = d
		}
	}
	e := &shortestEntry{dist: dist, properSelf: properSelf}
	eg.mu.Lock()
	eg.shortest[node] = e
	eg.mu.Unlock()
	return e
}

// route runs the cross-shard join for one // step and returns the
// per-shard arrivals the deliver round injects at in-endpoints.
// Unranked, an in-endpoint is reached exactly when a
// path of length ≥ 1 leads to it from some reached out-endpoint: one
// multi-source traversal of the whole frontier, set-at-a-time, whose
// "sources only if re-reached" rule is the proper-path rule. Ranked,
// shortest paths from every reached out-endpoint deliver its arrivals
// to in-endpoints, composing distances along the way.
func (eg *endpointGraph) route(outArr []map[string][]Arrival, ranked bool) []map[string][]Arrival {
	out := make([]map[string][]Arrival, len(eg.pre.inNodes))
	deliver := func(node int32, arr []Arrival) {
		s := eg.pre.shard[node]
		if out[s] == nil {
			out[s] = map[string][]Arrival{}
		}
		out[s][eg.pre.specs[node]] = arr
	}
	// Gather arrivals per out node.
	srcArr := map[int32][]Arrival{}
	for _, perShard := range outArr {
		for spec, arr := range perShard {
			node, ok := eg.pre.outNode[spec]
			if !ok || len(arr) == 0 {
				continue
			}
			srcArr[node] = append(srcArr[node], arr...)
		}
	}
	if len(srcArr) == 0 {
		return out
	}
	if !ranked {
		srcs := make([]int32, 0, len(srcArr))
		for node := range srcArr {
			srcs = append(srcs, node)
		}
		reached := eg.g.G.MultiSourceReachable(srcs)
		for _, ins := range eg.pre.inNodes {
			for _, in := range ins {
				if reached.Has(int(in)) {
					deliver(in, []Arrival{{}})
				}
			}
		}
		return out
	}
	inArrByNode := map[int32][]Arrival{}
	for node, arr := range srcArr {
		sp := eg.shortestFrom(node)
		for _, ins := range eg.pre.inNodes {
			for _, in := range ins {
				d := sp.dist[in]
				if in == node {
					d = sp.properSelf
				}
				if d == graph.InfDist {
					continue
				}
				for _, a := range arr {
					inArrByNode[in] = append(inArrByNode[in], Arrival{Base: a.Base, Dist: a.Dist + d})
				}
			}
		}
	}
	for node, arr := range inArrByNode {
		deliver(node, ParetoPrune(arr))
	}
	return out
}

// ParetoPrune keeps the (dist asc, base desc) Pareto frontier of an
// arrival set: an arrival with both a farther distance and a no-better
// base can never produce the maximal score downstream, whatever local
// distance is still added.
func ParetoPrune(arr []Arrival) []Arrival {
	if len(arr) <= 1 {
		return arr
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].Dist != arr[j].Dist {
			return arr[i].Dist < arr[j].Dist
		}
		return arr[i].Base > arr[j].Base
	})
	out := arr[:0]
	best := -1.0
	lastDist := uint32(0)
	for _, a := range arr {
		if len(out) > 0 && a.Dist == lastDist {
			continue // same dist, base no better (sorted desc)
		}
		if a.Base > best {
			out = append(out, a)
			best = a.Base
			lastDist = a.Dist
		}
	}
	return out
}
