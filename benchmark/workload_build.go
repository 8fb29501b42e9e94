package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hopi"
	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/psg"
	"hopi/internal/twohop"
)

// runBuild is build-dblp: one hopi.Build of the paper's DBLP shape
// (6,210 documents, closure budget 1M, new PSG join), then short
// serving windows over the built index. partition, twohop and psg do
// the work that build_s measures.
func runBuild(r *run) error {
	docs := r.cfg.docsOr(6210)
	coll, setup := r.generate(docs)
	opts := buildOpts(false)

	var (
		ix  *hopi.Index
		err error
	)
	heap := heapBytes()
	op := r.rec.newOp()
	build := r.timed(-1, op, "hopi.Build", func(int32) { ix, err = hopi.Build(coll, opts) })
	if err != nil {
		return err
	}
	r.attempted.Add(1)
	st := ix.Stats()
	r.set("build_s", build.Seconds(), 1)
	r.builtInMemory(ix, heap)
	r.set("partition.parts", float64(st.Partitions), 1)
	r.set("partition.cross_links", float64(st.CrossLinks), 1)
	r.set("twohop.partition_entries", float64(st.PartitionEntries), 1)

	if r.cfg.trace {
		r.buildLayers(coll, opts, build, ix.Size())
	}

	// Oracle on what was built: the full O(n²) Validate only where the
	// closure fits comfortably; at paper scale sampled pairs against BFS,
	// here and again after the windows' writes (5,000 pairs in all).
	if coll.NumElements() <= 20000 {
		err := ix.Validate()
		r.check(err == nil, "Index.Validate: %v", err)
	}
	r.checkPairs("build-dblp", coll.Unwrap(), ix, false, rand.New(rand.NewSource(r.cfg.seed)), 60, 50)

	// the first snapshot clones the cover: set-up, not the windows
	setup += r.timed(-1, 0, "hopi.Index.Snapshot", func(int32) { ix.Snapshot() })
	var pqs []*hopi.PreparedQuery
	setup += r.timed(-1, 0, "hopi.Prepare", func(int32) { pqs = mustPrepare(serveExprs) })
	read := limitReader(r, ix, pqs)
	setup += r.warm(read, len(pqs))
	r.set("setup_s", setup.Seconds(), 1)
	// The index the paper builds is also the one it maintains (§7.3):
	// the mixed and write-only windows are inserts at paper scale. Each
	// makes the next read clone a 13.7M-entry cover; two a second leave
	// the reader most of the window.
	r.serve(serving{read: read, cycle: len(pqs), probe: limitProbe,
		write: applyWriter(r, ix, newInsertGen(r.cfg.seed, docs, "new")), rate: 2})

	r.checkPairs("build-dblp after writes", ix.Collection().Unwrap(), ix, false, rand.New(rand.NewSource(r.cfg.seed+1)), 40, 50)
	return nil
}

// buildLayers repeats the build pipeline from outside core, calling the
// public functions of partition, twohop and psg in core.Build's order,
// so each phase is a span and the per-partition cover calls can be
// summed into CPU seconds. It then runs the old per-link join on the
// same partition covers as the Table 2 baseline.
func (r *run) buildLayers(coll *hopi.Collection, opts hopi.Options, buildWall time.Duration, wantEntries int) {
	c := coll.Unwrap()
	op := r.rec.newOp()
	root := r.rec.begin(-1, op, "build.layers")
	defer r.rec.end(root)

	var p *partition.Partitioning
	tPart := r.timed(root, op, "partition.ClosureBudget", func(int32) {
		p = partition.ClosureBudget(c, opts.ClosureBudget, nil, opts.Seed)
	})

	parts := make([]*psg.PartitionData, p.NumParts())
	var (
		cpu time.Duration
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	workers := runtime.GOMAXPROCS(0)
	next := make(chan int)
	tCov := r.timed(root, op, "twohop.partition_covers", func(cov int32) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pi := range next {
					d := r.timed(cov, op, "twohop.Build", func(int32) {
						g, globals := partition.ElementSubgraph(c, p.Parts[pi])
						cover, _ := twohop.Build(graph.NewClosure(g), twohop.Options{Seed: opts.Seed + int64(pi)})
						parts[pi] = psg.NewPartitionData(p.Parts[pi], g, globals, cover)
					})
					mu.Lock()
					cpu += d
					mu.Unlock()
				}
			}()
		}
		for pi := range p.Parts {
			next <- pi
		}
		close(next)
		wg.Wait()
	})

	partOf := func(id int32) int { return p.PartOfID(c, id) }
	var joined *twohop.Cover
	tJoin := r.timed(root, op, "psg.JoinNew", func(int32) {
		joined = psg.JoinNew(c, p.CrossLinks, partOf, parts, psg.NewJoinOptions{Seed: opts.Seed})
	})
	r.check(joined.Size() == wantEntries, "layer pipeline cover has %d entries, hopi.Build %d", joined.Size(), wantEntries)

	var old *twohop.Cover
	tOld := r.timed(root, op, "psg.JoinOld", func(int32) {
		old = psg.JoinOld(c, p.CrossLinks, parts, false)
	})

	r.set("partition.closure_budget_s", tPart.Seconds(), 1)
	r.set("twohop.partition_covers_s", tCov.Seconds(), 1)
	r.set("twohop.partition_covers_cpu_s", cpu.Seconds(), len(parts))
	r.set("twohop.pool_speedup", cpu.Seconds()/tCov.Seconds(), 1)
	r.set("psg.join_new_s", tJoin.Seconds(), 1)
	r.set("psg.join_old_s", tOld.Seconds(), 1)
	r.set("psg.join_old_entries", float64(old.Size()), 1)

	// Reconciliation: the phases timed from outside should add up to
	// the hopi.Build wall time; what is left is core's own glue.
	sum := tPart + tCov + tJoin
	r.set("core.build_unattributed_s", (buildWall - sum).Seconds(), 1)
	if gap := (buildWall - sum).Seconds() / buildWall.Seconds(); gap > 0.10 || gap < -0.10 {
		r.finding("build-dblp: partition+covers+join = %.2fs, hopi.Build = %.2fs: %.0f%% apart (limit 10%%)",
			sum.Seconds(), buildWall.Seconds(), 100*gap)
	}
	if tOld <= tJoin {
		r.finding("build-dblp: old join (%.2fs) is not slower than the new join (%.2fs)", tOld.Seconds(), tJoin.Seconds())
	}
}
