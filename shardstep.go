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
	// Piggybacked closure: the seed round can carry the endpoint
	// closure for shards the router predicts uncached, saving the
	// separate Closure RPC round.
	if req.WantClosure && len(req.ClosureFrom) > 0 && len(req.ClosureTo) > 0 {
		cl, cerr := s.ShardClosure(ctx, &shardrouter.ClosureRequest{
			WithDist: req.ClosureWithDist, From: req.ClosureFrom, To: req.ClosureTo,
		})
		if cerr != nil {
			return nil, cerr
		}
		resp.Closure = cl
	}
	// Piggybacked delivery tables: per in-endpoint, the tag-matching
	// candidates it reaches with local distances and merge metadata.
	// The router composes cross-shard matches from these instead of a
	// Deliver RPC, and caches them per (epoch, step tag). The map is
	// non-nil whenever ProbeIn was asked — "empty" and "unsupported"
	// must stay distinguishable on the wire.
	if len(req.ProbeIn) > 0 {
		resp.Deliveries = make(map[string][]shardrouter.Delivery, len(req.ProbeIn))
		for _, spec := range req.ProbeIn {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			in, rerr := s.coll.ResolveElement(spec)
			if rerr != nil {
				continue // vanished under a racing delete; epoch pin reports it
			}
			ds, derr := s.deliveryTable(ctx, in, req.Tag, req.Ranked)
			if derr != nil {
				return nil, derr
			}
			if len(ds) > 0 {
				resp.Deliveries[spec] = ds
			}
		}
	}
	return resp, nil
}

// deliveryTable lists the step candidates one cross-link target
// reaches (reflexively — the arrival's cross edge keeps the path
// proper): for ranked queries with the shard-local shortest distance,
// always with the metadata the router needs to merge globally. The
// table depends only on (snapshot, endpoint, tag, ranked), so the
// router caches it across queries pinned to the same cut.
func (s *Snapshot) deliveryTable(ctx context.Context, in int32, tag string, ranked bool) ([]shardrouter.Delivery, error) {
	var cands []int32
	for _, c := range s.ix.Descendants(in) {
		if tag != "*" && s.coll.c.Tag(c) != tag {
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return nil, nil
	}
	var dists []uint32
	if ranked {
		var err error
		dists, err = s.eng.BulkClosure(ctx, []int32{in}, cands, true)
		if err != nil {
			return nil, err
		}
	}
	out := make([]shardrouter.Delivery, 0, len(cands))
	for i, c := range cands {
		d := shardrouter.Delivery{ID: c}
		if ranked {
			if dists[i] == graph.InfDist {
				continue
			}
			d.Dist = dists[i]
		}
		doc, local := s.coll.c.LocalID(c)
		d.Doc = s.coll.c.Docs[doc].Name
		d.Local = local
		d.Tag = s.coll.c.Docs[doc].Elements[local].Tag
		out = append(out, d)
	}
	return out, nil
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
// to the unsharded answer.
func (s *Snapshot) ShardDeliver(ctx context.Context, req *shardrouter.DeliverRequest) (*shardrouter.DeliverResponse, error) {
	resp := &shardrouter.DeliverResponse{}
	type acc struct {
		score float64
		seen  bool
		meta  *shardrouter.Delivery
	}
	matches := map[int32]*acc{}
	for spec, arrivals := range req.In {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := s.coll.ResolveElement(spec)
		if err != nil {
			continue // vanished under a racing delete; epoch pin reports it
		}
		ds, err := s.deliveryTable(ctx, in, req.Tag, req.Ranked)
		if err != nil {
			return nil, err
		}
		for di := range ds {
			d := &ds[di]
			m := matches[d.ID]
			if m == nil {
				m = &acc{meta: d}
				matches[d.ID] = m
			}
			if !req.Ranked {
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
	for id, m := range matches {
		if !m.seen {
			continue
		}
		fe := shardrouter.FrontierElem{ID: id, Score: m.score}
		if req.WantMeta {
			fe.Doc, fe.Local, fe.Tag = m.meta.Doc, m.meta.Local, m.meta.Tag
		}
		resp.Matches = append(resp.Matches, fe)
	}
	return resp, nil
}

// ShardClosure reports this shard's local reachability from cross-link
// targets to cross-link sources — the target→source edge weights of
// the router's endpoint graph. Distances are the cover's shortest
// paths when asked for; without WithDist, 1 marks plain reachability.
func (s *Snapshot) ShardClosure(ctx context.Context, req *shardrouter.ClosureRequest) (*shardrouter.ClosureResponse, error) {
	// Resolve specs, compacting out the vanished ones (a racing delete;
	// the epoch pin reports it) so the bulk label join runs over live
	// elements only, then scatter back into the full matrix.
	fromIDs := make([]int32, 0, len(req.From))
	fromIdx := make([]int, 0, len(req.From))
	for i, spec := range req.From {
		if id, err := s.coll.ResolveElement(spec); err == nil {
			fromIDs = append(fromIDs, id)
			fromIdx = append(fromIdx, i)
		}
	}
	toIDs := make([]int32, 0, len(req.To))
	toIdx := make([]int, 0, len(req.To))
	for j, spec := range req.To {
		if id, err := s.coll.ResolveElement(spec); err == nil {
			toIDs = append(toIDs, id)
			toIdx = append(toIdx, j)
		}
	}
	sub, err := s.eng.BulkClosure(ctx, fromIDs, toIDs, req.WithDist)
	if err != nil {
		return nil, err
	}
	dist := make([]uint32, len(req.From)*len(req.To))
	for k := range dist {
		dist[k] = graph.InfDist
	}
	for i := range fromIDs {
		for j := range toIDs {
			dist[fromIdx[i]*len(req.To)+toIdx[j]] = sub[i*len(toIDs)+j]
		}
	}
	return &shardrouter.ClosureResponse{Dist: dist}, nil
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
