package hopi

import (
	"context"
	"fmt"

	"hopi/internal/graph"
	"hopi/internal/query"
	"hopi/internal/shardrouter"
)

// This file is the shard-side half of the distributed query tier: the
// evaluation primitives a shardrouter.Router drives over its Conn
// interface, implemented on a pinned Snapshot so a multi-RPC
// evaluation is exactly as consistent as a single-index query. The
// heavy lifting — seeding, advancing frontiers, cycle-aware
// self-matches, ranked scoring — is the snapshot engine's own code
// (internal/query's exported step primitives); this file only
// translates wire specs to element IDs and back.

// Scope returns the snapshot's token-scope identity: the value resume
// tokens are bound to so tokens from unrelated indexes are rejected
// outright rather than misread as epoch staleness.
func (s *Snapshot) Scope() uint64 { return s.scope }

// HasSeqEpoch reports whether the snapshot's epoch is a durable WAL
// sequence number (totally ordered, portable across replicas) rather
// than a per-instance counter.
func (s *Snapshot) HasSeqEpoch() bool { return s.seqEpoch }

func parseAxis(axis string) (query.Axis, error) {
	switch axis {
	case "/":
		return query.AxisChild, nil
	case "//":
		return query.AxisDescendant, nil
	}
	return 0, fmt.Errorf("hopi: bad step axis %q", axis)
}

// fillMeta attaches the result metadata the router needs to merge
// globally: document name, document-local element index, and tag.
func (s *Snapshot) fillMeta(fe *shardrouter.FrontierElem) {
	d, local := s.coll.c.LocalID(fe.ID)
	fe.Doc = s.coll.c.Docs[d].Name
	fe.Local = local
	fe.Tag = s.coll.c.Docs[d].Elements[local].Tag
}

// ShardStep evaluates one location step of a distributed query against
// this snapshot: the shard-local advance (or seed) plus, for // steps,
// the out-probe — which cross-link sources the *input* frontier
// reaches, reflexively, since the cross edge that follows keeps the
// path proper. Ranked probes need every frontier×endpoint distance;
// unranked ones only whether any frontier element reaches an endpoint.
func (s *Snapshot) ShardStep(ctx context.Context, req *shardrouter.StepRequest) (*shardrouter.StepResponse, error) {
	axis, err := parseAxis(req.Axis)
	if err != nil {
		return nil, err
	}
	step := query.Step{Axis: axis, Tag: req.Tag}
	resp := &shardrouter.StepResponse{Epoch: s.epoch, Scope: s.scope, SeqEpoch: s.seqEpoch}

	if req.Ranked {
		in := make(map[int32]float64, len(req.Frontier))
		if req.Seed {
			for _, id := range s.eng.SeedFrontier(step) {
				in[id] = 1
			}
			resp.Frontier = rankedToWire(in)
		} else {
			for _, fe := range req.Frontier {
				in[fe.ID] = fe.Score
			}
			next, err := s.eng.AdvanceRankedFrontier(ctx, in, step)
			if err != nil {
				return nil, err
			}
			resp.Frontier = rankedToWire(next)
		}
		if !req.Seed && len(req.ProbeOut) > 0 {
			// Resolve the probed endpoints, then compute all
			// frontier×endpoint distances in one label join instead of a
			// merge-intersect per pair.
			outIDs := make([]int32, 0, len(req.ProbeOut))
			outSpecs := make([]string, 0, len(req.ProbeOut))
			for _, spec := range req.ProbeOut {
				o, err := s.coll.ResolveElement(spec)
				if err != nil {
					continue // endpoint vanished under a racing delete; the epoch pin reports it
				}
				outIDs = append(outIDs, o)
				outSpecs = append(outSpecs, spec)
			}
			front := make([]int32, 0, len(in))
			scores := make([]float64, 0, len(in))
			for f, score := range in {
				front = append(front, f)
				scores = append(scores, score)
			}
			dists, derr := s.eng.BulkClosure(ctx, front, outIDs, true)
			if derr != nil {
				return nil, derr
			}
			resp.Out = map[string][]shardrouter.Arrival{}
			for j, spec := range outSpecs {
				var arr []shardrouter.Arrival
				for i := range front {
					d := dists[i*len(outIDs)+j]
					if d == graph.InfDist {
						continue
					}
					arr = append(arr, shardrouter.Arrival{Base: scores[i], Dist: d})
				}
				if len(arr) > 0 {
					resp.Out[spec] = shardrouter.ParetoPrune(arr)
				}
			}
		}
	} else {
		var next []int32
		var in []int32
		if req.Seed {
			next = s.eng.SeedFrontier(step)
		} else {
			in = make([]int32, len(req.Frontier))
			for i, fe := range req.Frontier {
				in[i] = fe.ID
			}
			next, err = s.eng.AdvanceFrontier(ctx, in, step)
			if err != nil {
				return nil, err
			}
		}
		resp.Frontier = make([]shardrouter.FrontierElem, len(next))
		for i, id := range next {
			resp.Frontier[i] = shardrouter.FrontierElem{ID: id}
		}
		if !req.Seed && len(req.ProbeOut) > 0 {
			outIDs := make([]int32, 0, len(req.ProbeOut))
			outSpecs := make([]string, 0, len(req.ProbeOut))
			for _, spec := range req.ProbeOut {
				o, err := s.coll.ResolveElement(spec)
				if err != nil {
					continue
				}
				outIDs = append(outIDs, o)
				outSpecs = append(outSpecs, spec)
			}
			// The reach is reflexive (from==endpoint counts): the cross
			// edge that follows keeps the path proper. One center bitset
			// over the whole frontier answers every endpoint at once.
			reach, derr := s.eng.ReachesAny(ctx, in, outIDs)
			if derr != nil {
				return nil, derr
			}
			resp.Out = map[string][]shardrouter.Arrival{}
			for j, spec := range outSpecs {
				if reach[j] {
					resp.Out[spec] = []shardrouter.Arrival{{}}
				}
			}
		}
	}
	if req.WantMeta {
		for i := range resp.Frontier {
			s.fillMeta(&resp.Frontier[i])
		}
	}
	return resp, nil
}

// shardMemo is what a snapshot computes for the router's closure and
// deliver rounds, kept for the snapshot's lifetime: the answer depends
// on nothing else, so every query pinned to the same cut reuses it,
// and a write starts the next snapshot with an empty memo.
//
// Both tables are bounded, because a snapshot can serve requests with
// ever new keys without being replaced: a cross-shard link changes this
// shard's endpoint lists in the router's map without writing here, and
// clients choose the tags of delivery tables. The router only asks for
// its current map's lists, so the closure memo keeps the latest spec
// lists per withDist (index 1 carries distances).
type shardMemo struct {
	closures [2]shardrouter.Memo[uint64, []uint32] // keyed by shardrouter.HashSpecs(from, to)
	tables   shardrouter.Memo[tableKey, []reachEntry]
}

// maxDeliveryTables bounds one snapshot's memoized delivery tables.
// One per (in-endpoint, tag, ranked) is useful and unknown tags are
// never stored: four shards over 1,000 generated DBLP documents, queried
// with //article//author, //article//cite//title, //*//author and
// //article//title in both modes, hold at most 582 per shard.
const maxDeliveryTables = 1 << 12

// newShardMemo is an empty memo with its size bounds set.
func newShardMemo() shardMemo {
	return shardMemo{
		closures: [2]shardrouter.Memo[uint64, []uint32]{{Max: 1}, {Max: 1}},
		tables:   shardrouter.Memo[tableKey, []reachEntry]{Max: maxDeliveryTables},
	}
}

// tableKey identifies one delivery table: a cross-link target and the
// step it feeds.
type tableKey struct {
	in     int32
	tag    string
	ranked bool
}

// reachEntry is one row of a delivery table: a step candidate the
// cross-link target reaches, with the shard-local shortest distance on
// ranked tables.
type reachEntry struct {
	id   int32
	dist uint32
}

// countMemo records one shard-RPC memo lookup on the index's metrics
// (hand-built snapshots have none).
func (s *Snapshot) countMemo(table string, hit bool) {
	if s.met != nil {
		s.met.shardMemo[table].count(hit)
	}
}

// deliveryTable lists the step candidates one cross-link target
// reaches (reflexively — the arrival's cross edge keeps the path
// proper), with the shard-local shortest distance on ranked tables:
// the hop count of a descendant walk over the shard's collection. It
// is memoized per (endpoint, tag, ranked); a tag no element of the
// snapshot carries has an empty table, which is not stored.
func (s *Snapshot) deliveryTable(in int32, tag string, ranked bool) []reachEntry {
	if len(s.eng.Candidates(tag)) == 0 {
		return nil
	}
	tab, hit, _ := s.memo.tables.Do(tableKey{in: in, tag: tag, ranked: ranked}, func() ([]reachEntry, error) {
		cands := s.eng.CandidateBits(tag)
		var out []reachEntry
		add := func(c int32, dist uint32) {
			if cands.Has(int(c)) {
				if !ranked {
					dist = 0
				}
				out = append(out, reachEntry{id: c, dist: dist})
			}
		}
		add(in, 0)
		for c, dist := range s.coll.c.Walk(in, false) {
			if c != in {
				add(c, dist)
			}
		}
		return out, nil
	})
	s.countMemo("delivery", hit)
	return tab
}

func rankedToWire(m map[int32]float64) []shardrouter.FrontierElem {
	out := make([]shardrouter.FrontierElem, 0, len(m))
	for id, score := range m {
		out = append(out, shardrouter.FrontierElem{ID: id, Score: score})
	}
	return out
}

// ShardDeliver injects cross-shard arrivals at cross-link targets on
// this shard and reports the step candidates they reach — reflexively,
// because every arrival distance already includes at least one cross
// edge, so even the zero-length local tail closes a proper path. The
// score is a single division base/(1+total), the same float operation
// the single-index engine performs, so merged scores are bit-identical
// to the unsharded answer. The delivery tables are memoized, so a
// repeated step against this snapshot only composes.
func (s *Snapshot) ShardDeliver(ctx context.Context, req *shardrouter.DeliverRequest) (*shardrouter.DeliverResponse, error) {
	score := map[int32]float64{}
	for spec, arrivals := range req.In {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := s.coll.ResolveElement(spec)
		if err != nil {
			continue // vanished under a racing delete; epoch pin reports it
		}
		for _, e := range s.deliveryTable(in, req.Tag, req.Ranked) {
			if !req.Ranked {
				score[e.id] = 0
				continue
			}
			best, seen := score[e.id]
			for _, a := range arrivals {
				if sc := a.Base / float64(1+a.Dist+e.dist); !seen || sc > best {
					best, seen = sc, true
				}
			}
			if seen {
				score[e.id] = best
			}
		}
	}
	resp := &shardrouter.DeliverResponse{Matches: make([]shardrouter.FrontierElem, 0, len(score))}
	for id, sc := range score {
		fe := shardrouter.FrontierElem{ID: id, Score: sc}
		if req.WantMeta {
			s.fillMeta(&fe)
		}
		resp.Matches = append(resp.Matches, fe)
	}
	return resp, nil
}

// ShardClosure reports this shard's local reachability from cross-link
// targets to cross-link sources — the target→source edge weights of
// the router's endpoint graph. Distances are the cover's shortest
// paths when asked for; without WithDist, 1 marks plain reachability.
// The matrix is memoized for the latest spec lists, so only the first
// query to meet this snapshot under a map version computes it; callers
// must not modify it.
func (s *Snapshot) ShardClosure(ctx context.Context, req *shardrouter.ClosureRequest) (*shardrouter.ClosureResponse, error) {
	memo := &s.memo.closures[0]
	if req.WithDist {
		memo = &s.memo.closures[1]
	}
	dist, hit, err := memo.Do(shardrouter.HashSpecs(req.From, req.To), func() ([]uint32, error) {
		return s.closure(ctx, req.From, req.To, req.WithDist)
	})
	if err != nil {
		return nil, err
	}
	s.countMemo("closure", hit)
	return &shardrouter.ClosureResponse{Dist: dist}, nil
}

// closure computes the from×to matrix ShardClosure memoizes.
func (s *Snapshot) closure(ctx context.Context, from, to []string, withDist bool) ([]uint32, error) {
	// Resolve specs, compacting out the vanished ones (a racing delete;
	// the epoch pin reports it) so the bulk label join runs over live
	// elements only, then scatter back into the full matrix.
	fromIDs := make([]int32, 0, len(from))
	fromIdx := make([]int, 0, len(from))
	for i, spec := range from {
		if id, err := s.coll.ResolveElement(spec); err == nil {
			fromIDs = append(fromIDs, id)
			fromIdx = append(fromIdx, i)
		}
	}
	toIDs := make([]int32, 0, len(to))
	toIdx := make([]int, 0, len(to))
	for j, spec := range to {
		if id, err := s.coll.ResolveElement(spec); err == nil {
			toIDs = append(toIDs, id)
			toIdx = append(toIdx, j)
		}
	}
	sub, err := s.eng.BulkClosure(ctx, fromIDs, toIDs, withDist)
	if err != nil {
		return nil, err
	}
	dist := make([]uint32, len(from)*len(to))
	for k := range dist {
		dist[k] = graph.InfDist
	}
	for i := range fromIDs {
		for j := range toIDs {
			dist[fromIdx[i]*len(to)+toIdx[j]] = sub[i*len(toIDs)+j]
		}
	}
	return dist, nil
}

// ShardResolve checks element specs against the snapshot.
func (s *Snapshot) ShardResolve(specs []string) []shardrouter.ResolveResult {
	out := make([]shardrouter.ResolveResult, len(specs))
	for i, spec := range specs {
		id, err := s.coll.ResolveElement(spec)
		if err != nil {
			continue
		}
		d, local := s.coll.c.LocalID(id)
		out[i] = shardrouter.ResolveResult{
			OK: true, Doc: s.coll.c.Docs[d].Name, Local: local,
			Tag: s.coll.c.Docs[d].Elements[local].Tag,
		}
	}
	return out
}
