package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hopi"
	"hopi/internal/graph"
	"hopi/internal/query"
	"hopi/internal/xmlmodel"
)

// queryExprs are the expressions of the query-mem schedule: a plain
// two-step semijoin, a wildcard first step, and a three-step path.
var queryExprs = []string{"//article//author", "//*//author", "//article//cite//title"}

// queryOp is one slot of the query-mem schedule.
type queryOp struct {
	kind string // reach1k, dist1k, full, limit10, top10, ranked, page2
	expr int    // index into queryExprs; unused by the probe batches
	// probe batches: the pairs; want holds what BFS says they must report
	pairs [][2]int32
	want  digest // path ops: the oracle's answer for this slot
}

func (q *queryOp) String() string {
	if q.pairs != nil {
		return q.kind
	}
	return q.kind + ":" + queryExprs[q.expr]
}

// querySchedule is the fixed cycle the reader walks (a second client
// starts seven slots in). Its proportions are exact, so each latency percentile falls
// inside one op class instead of on the border between two: 3/20 are
// sub-millisecond probe batches, 10/20 limit pushdown and paging, 4/20
// full evaluations, 3/20 ranked.
var querySchedule = []struct {
	kind string
	expr int
}{
	{"reach1k", 0}, {"limit10", 0}, {"full", 0}, {"limit10", 1}, {"page2", 0},
	{"top10", 0}, {"limit10", 2}, {"dist1k", 0}, {"full", 1}, {"limit10", 0},
	{"page2", 2}, {"ranked", 0}, {"limit10", 1}, {"full", 2}, {"reach1k", 0},
	{"limit10", 2}, {"top10", 1}, {"page2", 1}, {"full", 0}, {"limit10", 0},
}

// queryServe is the prepared state the query-mem ops run against.
type queryServe struct {
	ix    *hopi.Index
	pqs   []*hopi.PreparedQuery
	ops   []*queryOp
	check bool // compare each answer with the oracle (off while a writer runs)
}

// exec runs one slot on a freshly pinned snapshot and returns what it
// observed.
func (s *queryServe) exec(r *run, q *queryOp, parent int32, op int64) (digest, error) {
	ctx := context.Background()
	snap := s.ix.Snapshot()
	var (
		rs  []hopi.QueryResult
		err error
	)
	switch q.kind {
	case "reach1k":
		n := 0
		r.timed(parent, op, "hopi.Snapshot.Reaches", func(int32) {
			for _, p := range q.pairs {
				if snap.Reaches(p[0], p[1]) {
					n++
				}
			}
		})
		return digest{n: n}, nil
	case "dist1k":
		var sum uint64
		r.timed(parent, op, "hopi.Snapshot.Distance", func(int32) {
			for _, p := range q.pairs {
				d, derr := snap.Distance(p[0], p[1])
				if derr != nil {
					err = derr
					return
				}
				if d != hopi.Infinite {
					sum += uint64(d)
				}
			}
		})
		return digest{h: sum}, err
	case "full":
		r.timed(parent, op, "hopi.Snapshot.Run", func(int32) { rs, _, err = drain(ctx, snap, s.pqs[q.expr]) })
	case "limit10":
		r.timed(parent, op, "hopi.Snapshot.Run", func(int32) { rs, _, err = drain(ctx, snap, s.pqs[q.expr], hopi.QueryLimit(10)) })
	case "top10":
		r.timed(parent, op, "hopi.Snapshot.Run", func(int32) {
			rs, _, err = drain(ctx, snap, s.pqs[q.expr], hopi.QueryRanked(), hopi.QueryLimit(10))
		})
	case "ranked":
		r.timed(parent, op, "hopi.Snapshot.Run", func(int32) { rs, _, err = drain(ctx, snap, s.pqs[q.expr], hopi.QueryRanked()) })
	case "page2":
		var tok string
		r.timed(parent, op, "hopi.Snapshot.Run", func(int32) { _, tok, err = drain(ctx, snap, s.pqs[q.expr], hopi.QueryLimit(10)) })
		if err != nil {
			return digest{}, err
		}
		r.timed(parent, op, "hopi.Snapshot.Run.resume", func(int32) {
			rs, _, err = drain(ctx, snap, s.pqs[q.expr], hopi.QueryLimit(10), hopi.QueryResume(tok))
		})
	}
	return digestOf(toMatches(rs)), err
}

// probe marks the limit-10 cursor over //article//author.
func (s *queryServe) probe(i int) bool {
	q := s.ops[i%len(s.ops)]
	return q.kind == "limit10" && q.expr == 0
}

func (s *queryServe) reader(r *run) opFunc {
	return func(c, i int, parent int32, op int64) error {
		q := s.ops[(c*7+i)%len(s.ops)]
		got, err := s.exec(r, q, parent, op)
		if err == nil && s.check && got != q.want {
			return fmt.Errorf("%s: got %d results (hash %x), oracle %d (%x)", q, got.n, got.h, q.want.n, q.want.h)
		}
		return err
	}
}

// buildSchedule instantiates the cycle: probe pairs with their BFS
// answers, and for every path slot the oracle's digest.
func buildSchedule(c *xmlmodel.Collection, rng *rand.Rand) ([]*queryOp, error) {
	o := newPathOracle(c)
	full := map[int]map[int32]float64{}
	for i, e := range queryExprs {
		m, err := o.eval(e)
		if err != nil {
			return nil, err
		}
		full[i] = m
	}
	page := func(ms []match, from, to int) []match {
		return ms[min(from, len(ms)):min(to, len(ms))]
	}
	var ops []*queryOp
	for _, slot := range querySchedule {
		q := &queryOp{kind: slot.kind, expr: slot.expr}
		switch slot.kind {
		case "reach1k", "dist1k":
			reach := 0
			var sum uint64
			for s := 0; s < 20; s++ {
				u := o.all[rng.Intn(len(o.all))]
				dist := o.g.BFSFrom(u)
				for k := 0; k < 50; k++ {
					v := o.all[rng.Intn(len(o.all))]
					q.pairs = append(q.pairs, [2]int32{u, v})
					if dist[v] != graph.InfDist {
						reach++
						sum += uint64(dist[v])
					}
				}
			}
			q.want = digest{n: reach}
			if slot.kind == "dist1k" {
				q.want = digest{h: sum}
			}
		case "full":
			q.want = digestOf(ordered(full[slot.expr], false))
		case "limit10":
			q.want = digestOf(page(ordered(full[slot.expr], false), 0, 10))
		case "page2":
			q.want = digestOf(page(ordered(full[slot.expr], false), 10, 20))
		case "top10":
			q.want = digestOf(page(ordered(full[slot.expr], true), 0, 10))
		case "ranked":
			q.want = digestOf(ordered(full[slot.expr], true))
		}
		ops = append(ops, q)
	}
	return ops, nil
}

// runQuery is query-mem: a 2,000-document distance-aware in-memory
// index serving the fixed prepared-op schedule to one closed-loop
// client, every answer checked; then the same beside a paced in-memory
// writer, which is what a reader pays for a changing index (a fresh
// snapshot per write), and the writer alone.
func runQuery(r *run) error {
	docs := r.cfg.docsOr(2000)
	coll, setup := r.generate(docs)
	opts := buildOpts(true)
	var (
		ix  *hopi.Index
		err error
	)
	heap := heapBytes()
	build := r.timed(-1, 0, "hopi.Build", func(int32) { ix, err = hopi.Build(coll, opts) })
	if err != nil {
		return err
	}
	r.set("build_s", build.Seconds(), 1)
	r.builtInMemory(ix, heap)
	setup += r.timed(-1, 0, "hopi.Index.Snapshot", func(int32) { ix.Snapshot() })
	s := &queryServe{ix: ix, check: true}
	setup += r.timed(-1, 0, "hopi.Prepare", func(int32) { s.pqs = mustPrepare(queryExprs) })

	if s.ops, err = buildSchedule(coll.Unwrap(), rand.New(rand.NewSource(r.cfg.seed))); err != nil {
		return err
	}
	// Warm-up doubles as the quiescent oracle pass: every slot once.
	setup += r.warm(s.reader(r), len(s.ops))
	r.set("setup_s", setup.Seconds(), 1)
	r.checkPairs("query-mem", coll.Unwrap(), ix, true, rand.New(rand.NewSource(r.cfg.seed+1)), 40, 50)

	if r.cfg.trace {
		if err := r.queryLayers(s, coll); err != nil {
			return err
		}
	}

	r.serve(serving{read: s.reader(r), cycle: len(s.ops), probe: s.probe,
		afterRO: func(windowResult) { s.check = false }, // the writer changes the answers
		write:   applyWriter(r, ix, newInsertGen(r.cfg.seed, docs, "new")), rate: 5})
	if r.cfg.trace {
		op := r.rec.newOp()
		refresh := r.snapshotRefresh(ix, newInsertGen(r.cfg.seed+7, docs, "refresh"), -1, op)
		r.set("query.refresh_ms", refresh.meanMs(), len(refresh))
	}
	r.checkPairs("query-mem after writes", ix.Collection().Unwrap(), ix, true, rand.New(rand.NewSource(r.cfg.seed+2)), 20, 50)
	return nil
}

// queryLayers times each layer under the cursor with one client: label
// probes on the cover, the query engine's evaluators, then the hopi
// cursor on top, so that each number is the one below plus a stated
// overhead. It ends with the HTTP leg, the next layer up.
func (r *run) queryLayers(s *queryServe, coll *hopi.Collection) error {
	ctx := context.Background()
	op := r.rec.newOp()
	root := r.rec.begin(-1, op, "query.layers")
	defer r.rec.end(root)
	core := s.ix.Core()
	cov := core.Cover()
	eng := query.NewEngine(coll.Unwrap(), core)
	var qs []*query.Query
	for _, e := range queryExprs {
		q, err := query.Parse(e)
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}

	// label probes: the two 1,000-pair batches of the schedule, 50 times
	var pairs [][2]int32
	for _, q := range s.ops {
		pairs = append(pairs, q.pairs...)
	}
	const probeReps = 50
	hits := 0
	d := r.timed(root, op, "twohop.Cover.Reaches", func(int32) {
		for rep := 0; rep < probeReps; rep++ {
			for _, p := range pairs {
				if cov.Reaches(p[0], p[1]) {
					hits++
				}
			}
		}
	})
	r.set("twohop.reach_probe_ns", float64(d)/float64(probeReps*len(pairs)), probeReps*len(pairs))
	var sum uint64
	d = r.timed(root, op, "twohop.Cover.Distance", func(int32) {
		for rep := 0; rep < probeReps; rep++ {
			for _, p := range pairs {
				sum += uint64(cov.Distance(p[0], p[1]))
			}
		}
	})
	r.set("twohop.distance_probe_ns", float64(d)/float64(probeReps*len(pairs)), probeReps*len(pairs))
	_, _ = hits, sum

	// engine: mean over the three expressions and reps repetitions
	const reps = 10
	stream := func(name string, q *query.Query, so query.StreamOpts) (time.Duration, error) {
		var err error
		d := r.timed(root, op, name, func(int32) {
			var st *query.Stream
			if st, err = eng.Stream(ctx, q, so); err != nil {
				return
			}
			for st.Next() {
			}
			err = st.Err()
			st.Close()
		})
		return d, err
	}
	var limit10, topk, rankedFull lats
	fullOf := make([]lats, len(qs))
	for rep := 0; rep < reps; rep++ {
		for i, q := range qs {
			// the cursor asks the engine for limit+1; do the same here
			d, err := stream("query.Engine.Stream.limit", q, query.StreamOpts{Limit: 11})
			if err != nil {
				return err
			}
			limit10 = append(limit10, d)
			if d, err = stream("query.Engine.Stream.topk", q, query.StreamOpts{Limit: 11, Ranked: true}); err != nil {
				return err
			}
			topk = append(topk, d)
			if d, err = stream("query.Engine.Stream.full", q, query.StreamOpts{}); err != nil {
				return err
			}
			fullOf[i] = append(fullOf[i], d)
			if d, err = stream("query.Engine.Stream.ranked", q, query.StreamOpts{Ranked: true}); err != nil {
				return err
			}
			rankedFull = append(rankedFull, d)
		}
	}
	r.set("query.stream_limit10_ms", limit10.meanMs(), len(limit10))
	r.set("query.topk10_ms", topk.meanMs(), len(topk))
	r.set("query.semijoin_full_ms", fullOf[0].meanMs(), reps)
	r.set("query.wildcard_full_ms", fullOf[1].meanMs(), reps)
	r.set("query.threestep_full_ms", fullOf[2].meanMs(), reps)
	r.set("query.ranked_full_ms", rankedFull.meanMs(), len(rankedFull))

	// rows examined per result, from EXPLAIN: exact for a given seed
	snap := s.ix.Snapshot()
	postings, matches := 0, 0
	for _, pq := range s.pqs {
		plan, err := snap.Explain(ctx, pq)
		if err != nil {
			return err
		}
		for _, sp := range plan.Steps {
			postings += sp.Postings
		}
		matches += plan.Matches
	}
	r.set("query.rows_examined_per_result", float64(postings)/float64(max(matches, 1)), matches)

	// The hopi layer on top of the engine. The cursor's overhead is its
	// wall time minus the time EXPLAIN reports inside the snapshot's own
	// engine for the same limit-10 run: the engine above is built over the
	// live index, not the snapshot's clone, and is not comparable to the
	// microsecond.
	var prep, cursor, inEngine, resume lats
	for rep := 0; rep < reps; rep++ {
		for i, e := range queryExprs {
			prep = append(prep, r.timed(root, op, "hopi.Prepare", func(int32) { _, _ = hopi.Prepare(e) }))
			t := time.Now()
			plan, err := snap.Explain(ctx, s.pqs[i], hopi.QueryLimit(10))
			if err != nil {
				return err
			}
			// Explain reports wall time; put it on the clock the cursor is timed on
			inEngine = append(inEngine, r.clock.between(t, t.Add(plan.Elapsed)))
			var tok string
			cursor = append(cursor, r.timed(root, op, "hopi.Snapshot.Run", func(int32) {
				_, tok, err = drain(ctx, snap, s.pqs[i], hopi.QueryLimit(10))
			}))
			if err != nil {
				return err
			}
			resume = append(resume, r.timed(root, op, "hopi.Snapshot.Run.resume", func(int32) {
				_, _, err = drain(ctx, snap, s.pqs[i], hopi.QueryLimit(10), hopi.QueryResume(tok))
			}))
			if err != nil {
				return err
			}
		}
	}
	overhead := make([]float64, len(cursor)) // paired: same query, same snapshot
	for i := range cursor {
		overhead[i] = ms(cursor[i] - inEngine[i])
	}
	r.set("hopi.prepare_us", 1e3*prep.meanMs(), len(prep))
	r.set("hopi.cursor_overhead_us", 1e3*medianOf(overhead), len(overhead))
	r.set("hopi.page_resume_ms", resume.meanMs(), len(resume))

	if !r.cfg.noHTTP {
		r.httpLeg(s, cursor.meanMs())
	}
	return nil
}
