package shardrouter

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
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
// RPC rounds are proportional to query shape, not shard count ×
// steps: the seed round piggybacks closure fetches for cache-miss
// shards, each // step's round carries both the out-probes and any
// delivery-table fills, and the cross-shard matches are composed
// router-side from cached tables — so a warm //a//b query completes
// in two rounds total.
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

// predictCut guesses the (epoch, scope) the seed round will pin for
// shard s, so the closure cache can be consulted before the first
// RPC: resumes know the cut exactly; fresh queries reuse the last cut
// any query observed. A wrong guess only costs a piggybacked closure
// its savings — correctness never depends on it, the post-seed
// resolution re-checks against the pinned values.
func (r *Router) predictCut(s int, tok *vectorToken) (epoch, scope uint64, ok bool) {
	if tok != nil {
		return tok.epochs[s], tok.scopes[s], true
	}
	if e := r.lastCut[s].Load(); e != nil {
		return e.epoch, e.scope, true
	}
	return 0, 0, false
}

func (r *Router) noteCut(s int, epoch, scope uint64) {
	if e := r.lastCut[s].Load(); e != nil && e.epoch == epoch && e.scope == scope {
		return
	}
	r.lastCut[s].Store(&cutEntry{epoch: epoch, scope: scope})
}

func checkClosureSize(shard string, resp *ClosureResponse, nFrom, nTo int) error {
	if resp == nil || len(resp.Dist) != nFrom*nTo {
		n := -1
		if resp != nil {
			n = len(resp.Dist)
		}
		return fmt.Errorf("shard %s: closure matrix size %d, want %d", shard, n, nFrom*nTo)
	}
	return nil
}

// evalOnce runs one full evaluation attempt against a fixed shard map
// and a consistent per-shard snapshot cut. tr, when non-nil, collects
// one TraceSpan per shard RPC (its methods are nil-safe, so untraced
// queries pay nothing).
func (r *Router) evalOnce(ctx context.Context, m *ShardMap, q *query.Query, hash uint32, opt QueryOptions, tok *vectorToken, tr *QueryTrace) (*Page, error) {
	tr.attempt()
	K := len(r.conns)
	expected := make([]uint64, K)
	scopes := make([]uint64, K)
	if tok != nil {
		copy(expected, tok.epochs)
	}
	// Fresh queries may be served from retained snapshots after the
	// seed round pins the cut: writes landing mid-evaluation then don't
	// invalidate the query. Resumes must not — epoch equality IS the
	// token staleness check.
	retain := tok == nil
	// classify turns a shard's epoch-mismatch answer into the resume
	// token verdict: scope first (a different index identity is a bad
	// token outright, never a retryable stall), then staleness —
	// retryable exactly when the shard sits *behind* the token on a
	// sequence epoch.
	classify := func(i int, err error) error {
		var em *EpochMismatchError
		if tok != nil && errors.As(err, &em) {
			if tok.scopes[i] != em.Scope {
				return fmt.Errorf("%w: issued by a different index", ErrBadToken)
			}
			return &StaleVectorError{
				Shard:      r.conns[i].Name(),
				TokenEpoch: tok.epochs[i],
				ShardEpoch: em.Current,
				Retryable:  em.SeqEpoch && em.Current < tok.epochs[i],
			}
		}
		return err
	}

	last := len(q.Steps) - 1
	frontiers := make([][]FrontierElem, K)
	// cutSeen marks shards whose seed round pinned a cut some earlier
	// query already visited. Delivery tables cover a shard's whole cut
	// set — expensive to compute — so they are only warmed on a cut
	// that has proven stable across queries; a cut fresh off a write
	// uses the classic arrivals-only Deliver round instead, keeping the
	// per-query cost under write churn no worse than the uncached path.
	cutSeen := make([]bool, K)

	// The endpoint graph is needed exactly when a non-seed descendant
	// step exists and cross links do; its map-derived skeleton is
	// memoized per published map.
	var pre *egPrep
	for _, st := range q.Steps[1:] {
		if st.Axis == query.AxisDescendant && len(m.CrossLinks) > 0 {
			pre = r.prep(m)
			break
		}
	}

	withDist := opt.Ranked
	var closures []*ClosureResponse
	var wantClosure []bool
	if pre != nil {
		closures = make([]*ClosureResponse, K)
		wantClosure = make([]bool, K)
		for _, s := range pre.need {
			ep, sc, known := r.predictCut(s, tok)
			if !known {
				wantClosure[s] = true
				continue
			}
			key := closureKey{shard: s, scope: sc, epoch: ep, withDist: withDist, specs: pre.closureHash[s]}
			if _, ok := r.cache.peek(key); !ok {
				wantClosure[s] = true
			}
		}
	}

	// Seed round: contact every shard — also the round that pins the
	// whole cut (fresh queries) or verifies the whole token (resumes),
	// including shards the query's frontier never revisits. Shards
	// whose closure matrix is predicted uncached compute it here,
	// piggybacked, instead of in a separate round.
	seed := q.Steps[0]
	err := r.parallel(allShards(K), func(i int) error {
		return r.callConn(i, func(c Conn) error {
			req := &StepRequest{
				Epoch: expected[i], Pin: tok != nil,
				Ranked: opt.Ranked, Seed: true,
				Axis: axisStr(seed.Axis), Tag: seed.Tag,
				WantMeta: last == 0,
				Trace:    tr.ID(),
			}
			if pre != nil && wantClosure[i] {
				req.WantClosure = true
				req.ClosureFrom = pre.inSpecs[i]
				req.ClosureTo = pre.outSpecs[i]
				req.ClosureWithDist = withDist
			}
			r.stepRPCs.Add(1)
			t0 := time.Now()
			resp, serr := c.Step(ctx, req)
			if serr != nil {
				serr = classify(i, serr)
				tr.add("seed", "step", c.Name(), t0, nil, serr)
				return serr
			}
			tr.add("seed", "step", c.Name(), t0, resp.Span, nil)
			if tok != nil && tok.scopes[i] != resp.Scope {
				return fmt.Errorf("%w: issued by a different index", ErrBadToken)
			}
			expected[i] = resp.Epoch
			scopes[i] = resp.Scope
			if prev := r.lastCut[i].Load(); prev != nil && prev.epoch == resp.Epoch && prev.scope == resp.Scope {
				cutSeen[i] = true
			}
			r.noteCut(i, resp.Epoch, resp.Scope)
			frontiers[i] = resp.Frontier
			if req.WantClosure && resp.Closure != nil {
				if err := checkClosureSize(c.Name(), resp.Closure, len(req.ClosureFrom), len(req.ClosureTo)); err != nil {
					return err
				}
				closures[i] = resp.Closure
				r.cache.noteMiss()
				r.cache.put(closureKey{shard: i, scope: resp.Scope, epoch: resp.Epoch, withDist: withDist, specs: pre.closureHash[i]}, resp.Closure)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// Resolve the closures the seed round did not answer — predicted
	// cache hits (re-checked against the actual cut, singleflighted
	// across concurrent queries) and shards that ignored the piggyback
	// (older servers) — then assemble the endpoint graph.
	var eg *endpointGraph
	if pre != nil {
		var missing []int
		for _, s := range pre.need {
			if closures[s] == nil {
				missing = append(missing, s)
			}
		}
		err := r.parallel(missing, func(s int) error {
			key := closureKey{shard: s, scope: scopes[s], epoch: expected[s], withDist: withDist, specs: pre.closureHash[s]}
			v, ferr := r.cache.do(key, func() (any, error) {
				var out *ClosureResponse
				cerr := r.callConn(s, func(c Conn) error {
					t0 := time.Now()
					resp, rerr := c.Closure(ctx, &ClosureRequest{
						Epoch: expected[s], Retain: retain, WithDist: withDist,
						From: pre.inSpecs[s], To: pre.outSpecs[s],
						Trace: tr.ID(),
					})
					if rerr != nil {
						rerr = classify(s, rerr)
						tr.add("closure", "closure", c.Name(), t0, nil, rerr)
						return rerr
					}
					tr.add("closure", "closure", c.Name(), t0, resp.Span, nil)
					if err := checkClosureSize(c.Name(), resp, len(pre.inSpecs[s]), len(pre.outSpecs[s])); err != nil {
						return err
					}
					out = resp
					return nil
				})
				return out, cerr
			})
			if ferr != nil {
				return ferr
			}
			closures[s] = v.(*ClosureResponse)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		eg = r.endpointGraphFor(m, pre, withDist, expected, scopes, closures)
		tr.add("closure", "assemble", RouterSpanShard, t0, nil, nil)
	}

	for si := 1; si <= last; si++ {
		step := q.Steps[si]
		wantMeta := si == last
		phase := fmt.Sprintf("step%d:%s%s", si, axisStr(step.Axis), step.Tag)
		if step.Axis == query.AxisChild {
			// Child steps never cross shards: parent-child edges live
			// inside one document, documents are atomic to a shard.
			err := r.parallel(nonEmpty(frontiers), func(i int) error {
				return r.callConn(i, func(c Conn) error {
					r.stepRPCs.Add(1)
					t0 := time.Now()
					resp, serr := c.Step(ctx, &StepRequest{
						Epoch: expected[i], Pin: true, Retain: retain, Ranked: opt.Ranked,
						Axis: "/", Tag: step.Tag,
						Frontier: frontiers[i], WantMeta: wantMeta,
						Trace: tr.ID(),
					})
					if serr != nil {
						serr = classify(i, serr)
						tr.add(phase, "step", c.Name(), t0, nil, serr)
						return serr
					}
					tr.add(phase, "step", c.Name(), t0, resp.Span, nil)
					frontiers[i] = resp.Frontier
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
			continue
		}

		// Descendant step: one parallel round advances each shard's
		// frontier, probes the out-endpoints, and fills any uncached
		// delivery tables; the cross-shard matches are then composed
		// router-side, with a Deliver RPC only as the cross-version
		// fallback.
		var tables []map[string][]Delivery
		var wantTables []bool
		if eg != nil {
			tables = make([]map[string][]Delivery, K)
			wantTables = make([]bool, K)
			for i := 0; i < K; i++ {
				if len(pre.inSpecs[i]) == 0 {
					continue
				}
				key := deliverKey{shard: i, scope: scopes[i], epoch: expected[i], ranked: opt.Ranked, tag: step.Tag, specs: pre.deliverHash[i]}
				if v, ok := r.cache.get(key); ok {
					tables[i] = v.(map[string][]Delivery)
				} else if cutSeen[i] && r.cache.enabled() {
					wantTables[i] = true
				}
			}
		}
		idxs := nonEmpty(frontiers)
		if wantTables != nil {
			inRound := make(map[int]bool, len(idxs))
			for _, i := range idxs {
				inRound[i] = true
			}
			// A shard with an empty frontier can still owe its delivery
			// table for this step.
			for i, w := range wantTables {
				if w && !inRound[i] {
					idxs = append(idxs, i)
				}
			}
		}
		next := make([][]FrontierElem, K)
		outArr := make([]map[string][]Arrival, K)
		err := r.parallel(idxs, func(i int) error {
			return r.callConn(i, func(c Conn) error {
				req := &StepRequest{
					Epoch: expected[i], Pin: true, Retain: retain, Ranked: opt.Ranked,
					Axis: "//", Tag: step.Tag,
					Frontier: frontiers[i], WantMeta: wantMeta,
					Trace: tr.ID(),
				}
				if eg != nil {
					if len(frontiers[i]) > 0 {
						req.ProbeOut = pre.outSpecs[i]
					}
					if wantTables[i] {
						req.ProbeIn = pre.inSpecs[i]
					}
				}
				r.stepRPCs.Add(1)
				t0 := time.Now()
				resp, serr := c.Step(ctx, req)
				if serr != nil {
					serr = classify(i, serr)
					tr.add(phase, "step", c.Name(), t0, nil, serr)
					return serr
				}
				tr.add(phase, "step", c.Name(), t0, resp.Span, nil)
				next[i] = resp.Frontier
				outArr[i] = resp.Out
				if eg != nil && wantTables[i] && resp.Deliveries != nil {
					// The counted get above already recorded this miss;
					// just store the piggybacked fill.
					tables[i] = resp.Deliveries
					r.cache.put(deliverKey{shard: i, scope: scopes[i], epoch: expected[i], ranked: opt.Ranked, tag: step.Tag, specs: pre.deliverHash[i]}, resp.Deliveries)
				}
				return nil
			})
		})
		if err != nil {
			return nil, err
		}

		if eg != nil {
			t0 := time.Now()
			inArr := eg.route(outArr, opt.Ranked)
			var fallback []int
			for i := range inArr {
				if len(inArr[i]) == 0 {
					continue
				}
				if tables[i] != nil {
					next[i] = mergeFrontier(next[i], composeDeliveries(tables[i], inArr[i], opt.Ranked, wantMeta))
				} else {
					fallback = append(fallback, i)
				}
			}
			tr.add(phase, "route", RouterSpanShard, t0, nil, nil)
			if len(fallback) > 0 {
				// Shards with no table — a fresh cut, a disabled cache,
				// or a server predating the ProbeIn fold: classic
				// arrivals-only Deliver round.
				err := r.parallel(fallback, func(i int) error {
					return r.callConn(i, func(c Conn) error {
						r.deliverRPCs.Add(1)
						t0 := time.Now()
						resp, serr := c.Deliver(ctx, &DeliverRequest{
							Epoch: expected[i], Retain: retain, Ranked: opt.Ranked,
							Tag: step.Tag, In: inArr[i], WantMeta: wantMeta,
							Trace: tr.ID(),
						})
						if serr != nil {
							serr = classify(i, serr)
							tr.add(phase, "deliver", c.Name(), t0, nil, serr)
							return serr
						}
						tr.add(phase, "deliver", c.Name(), t0, resp.Span, nil)
						next[i] = mergeFrontier(next[i], resp.Matches)
						return nil
					})
				})
				if err != nil {
					return nil, err
				}
			}
		}
		frontiers = next
	}

	// Merge globally: attach ordinals from the map and sort into the
	// canonical order.
	var all []Result
	for i, fr := range frontiers {
		for _, fe := range fr {
			e, ok := m.Docs[fe.Doc]
			if !ok {
				// The shard knows a document the map does not yet — a
				// write is publishing between our two loads; retry.
				return nil, fmt.Errorf("%w: document %q", errMapRace, fe.Doc)
			}
			all = append(all, Result{
				Doc: fe.Doc, Ordinal: e.Ordinal, Local: fe.Local,
				Shard: i, Tag: fe.Tag, Score: fe.Score,
			})
		}
	}
	sortResults(all, opt.Ranked)

	if tok != nil && tok.hasAfter {
		all = skipAfter(all, tok, opt.Ranked)
	}
	page := &Page{}
	hasMore := false
	if opt.Limit > 0 && len(all) > opt.Limit {
		hasMore = true
		all = all[:opt.Limit]
	}
	page.Results = all
	if hasMore && len(all) > 0 {
		lastR := all[len(all)-1]
		t := vectorToken{
			hash: hash, ranked: opt.Ranked, mapVersion: m.Version,
			scopes: scopes, epochs: expected,
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

// composeDeliveries closes a // step's cross-shard join router-side:
// an in-endpoint's delivery table lists the local candidates it
// reaches, the routed arrivals supply base scores and cross-path
// distances. The ranked score is the same single division
// ShardDeliver performs — base/(1+dist) over the composed total — so
// composed scores stay bit-identical to the RPC path and to the
// unsharded engine.
func composeDeliveries(tab map[string][]Delivery, in map[string][]Arrival, ranked, wantMeta bool) []FrontierElem {
	type acc struct {
		score float64
		seen  bool
		meta  *Delivery
	}
	matches := map[int32]*acc{}
	for spec, arrivals := range in {
		ds := tab[spec]
		for di := range ds {
			d := &ds[di]
			m := matches[d.ID]
			if m == nil {
				m = &acc{meta: d}
				matches[d.ID] = m
			}
			if !ranked {
				m.seen = true
				continue
			}
			for _, a := range arrivals {
				if sc := a.Base / float64(1+a.Dist+d.Dist); !m.seen || sc > m.score {
					m.score, m.seen = sc, true
				}
			}
		}
	}
	out := make([]FrontierElem, 0, len(matches))
	for id, m := range matches {
		if !m.seen {
			continue
		}
		fe := FrontierElem{ID: id, Score: m.score}
		if wantMeta {
			fe.Doc, fe.Local, fe.Tag = m.meta.Doc, m.meta.Local, m.meta.Tag
		}
		out = append(out, fe)
	}
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
// cross edges, and the per-shard endpoint partitions (in/out specs,
// probe lists, spec-list hashes for cache keys). It depends only on
// the shard map, so it is memoized per published map and shared by
// every query and attempt against it.
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
	inSpecs  [][]string // per shard: in-endpoint specs (ProbeIn, closure From)
	need     []int      // shards with both in- and out-endpoints

	closureHash []uint64 // per shard: hashSpecs(inSpecs, outSpecs)
	deliverHash []uint64 // per shard: hashSpecs(inSpecs)
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
		m:           m,
		outSpecs:    make([][]string, K),
		outNode:     map[string]int32{},
		outNodes:    make([][]int32, K),
		inNodes:     make([][]int32, K),
		inSpecs:     make([][]string, K),
		closureHash: make([]uint64, K),
		deliverHash: make([]uint64, K),
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
		pre.closureHash[s] = hashSpecs(pre.inSpecs[s], pre.outSpecs[s])
		pre.deliverHash[s] = hashSpecs(pre.inSpecs[s])
	}
	return pre
}

// endpointGraph is the serving-tier skeleton graph: one node per
// cross-link endpoint element, cross links as weight-1 edges, and
// shard-local target→source closure edges weighted by the shards' own
// shortest distances. It is the same shape as the build-time PSG
// (internal/psg), which is why the PSG's Dijkstra serves as its
// shortest-path engine for ranked queries. An assembled graph is
// immutable and memoized per pinned cut (see endpointGraphFor).
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

func egCacheKey(m *ShardMap, withDist bool, need []int, epochs, scopes []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%t", m.Version, withDist)
	for _, s := range need {
		fmt.Fprintf(&b, "|%d:%d:%d", s, scopes[s], epochs[s])
	}
	return b.String()
}

// endpointGraphFor returns the assembled endpoint graph for a pinned
// cut, reusing the previous assembly when the cut (map version +
// needed shards' epochs) is unchanged — the steady-state read case.
func (r *Router) endpointGraphFor(m *ShardMap, pre *egPrep, withDist bool, epochs, scopes []uint64, closures []*ClosureResponse) *endpointGraph {
	key := egCacheKey(m, withDist, pre.need, epochs, scopes)
	if e := r.egMemo.Load(); e != nil && e.key == key {
		return e.eg
	}
	eg := assembleEndpointGraph(pre, closures)
	r.egMemo.Store(&egMemoEntry{key: key, eg: eg})
	return eg
}

// assembleEndpointGraph combines the map-derived skeleton with the
// pinned cut's closure matrices into the routable graph. Pure
// computation — every RPC has already happened.
func assembleEndpointGraph(pre *egPrep, closures []*ClosureResponse) *endpointGraph {
	var local []hEdge
	for _, s := range pre.need {
		resp := closures[s]
		ins, outs := pre.inNodes[s], pre.outNodes[s]
		for i, ni := range ins {
			for j, nj := range outs {
				if ni == nj {
					continue // same element: same node, no edge needed
				}
				d := resp.Dist[i*len(outs)+j]
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
// per-shard delivery set the router composes (or, for older shards,
// delivers by RPC). Unranked, an in-endpoint is reached exactly when a
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
