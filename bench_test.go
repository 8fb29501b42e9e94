package hopi

// One benchmark per table/figure of the paper's evaluation (§7), plus
// ablation benches for the design choices DESIGN.md calls out.
// cmd/hopibench prints the paper-style tables (§7 only, at its larger
// default scale); these testing.B benches regenerate the same
// measurements under `go test -bench`, scaled so a full -bench=. run
// completes in minutes. Serving-path costs are measured by benchmark/.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"hopi/internal/core"
	"hopi/internal/experiments"
	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/psg"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

const benchSeed = 42

func benchDBLP(docs int) *xmlmodel.Collection {
	return gen.DBLP(gen.DefaultDBLP(docs, benchSeed))
}

func mustBuild(b *testing.B, c *xmlmodel.Collection, opts core.Options) *core.Index {
	b.Helper()
	ix, err := core.Build(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// --- Table 1 ----------------------------------------------------------

func BenchmarkTable1CollectionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Config{
			DBLPDocs: 200, INEXDocs: 12, INEXMeanElements: 200, Seed: benchSeed,
		})
		if err != nil || len(rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- §7.2 centralized baseline -----------------------------------------

func BenchmarkCentralizedCover(b *testing.B) {
	c := benchDBLP(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuild(b, c, core.Options{Partitioner: core.PartWhole, Join: core.JoinNewHBar, Seed: benchSeed})
	}
}

// --- Table 2 rows -------------------------------------------------------

func benchBuild(b *testing.B, opts core.Options) {
	c := benchDBLP(200)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		ix := mustBuild(b, c, opts)
		size = ix.Size()
	}
	b.ReportMetric(float64(size), "entries")
}

func BenchmarkBuildOldJoin(b *testing.B) { // Table 2 "baseline"
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinOldIncremental, Seed: benchSeed})
}

func BenchmarkBuildNewJoinP5(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 65, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildNewJoinP10(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildNewJoinP20(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 260, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildNewJoinP50(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 650, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildSingle(b *testing.B) { // Table 2 "single"
	benchBuild(b, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildNewJoinN10(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartClosureBudget, ClosureBudget: 10_000, Join: core.JoinNewHBar, Seed: benchSeed})
}

func BenchmarkBuildNewJoinN100(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartClosureBudget, ClosureBudget: 100_000, Join: core.JoinNewHBar, Seed: benchSeed})
}

// --- build phases around the cover kernel, 1,000 documents ----------------

func BenchmarkPartitionClosureBudget(b *testing.B) { // §4.3 incremental closure
	c := benchDBLP(1000)
	b.ResetTimer()
	var parts int
	for i := 0; i < b.N; i++ {
		parts = partition.ClosureBudget(c, 1_000_000, nil, benchSeed).NumParts()
	}
	b.ReportMetric(float64(parts), "parts")
}

func BenchmarkJoinNew(b *testing.B) { benchJoinNew(b, false) } // §4.1 join alone, partition covers prebuilt

func BenchmarkJoinNewDistance(b *testing.B) { benchJoinNew(b, true) } // the same, distance-aware (§5)

func benchJoinNew(b *testing.B, withDist bool) {
	c := benchDBLP(1000)
	p := partition.ClosureBudget(c, 1_000_000, nil, benchSeed)
	links := partition.NewLinkIndex(c)
	parts := make([]*psg.PartitionData, p.NumParts())
	for pi, docs := range p.Parts {
		g, globals := links.ElementSubgraph(docs)
		var cov *twohop.Cover
		if withDist {
			cov, _ = twohop.BuildDistanceAware(graph.NewDistClosure(g), twohop.Options{Seed: benchSeed + int64(pi)})
		} else {
			cov, _ = twohop.Build(graph.NewClosure(g), twohop.Options{Seed: benchSeed + int64(pi)})
		}
		parts[pi] = psg.NewPartitionData(docs, g, globals, cov)
	}
	partOf := func(id int32) int { return p.PartOfID(c, id) }
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = psg.JoinNew(c, p.CrossLinks, partOf, parts, psg.NewJoinOptions{WithDist: withDist, Seed: benchSeed}).Size()
	}
	b.ReportMetric(float64(size), "entries")
}

// largestPartitionGraph returns the element graph of the biggest
// partition the default closure budget makes of the 620-document
// collection: the greedy cover kernel's share of a build, small enough
// to track without a paper-scale run.
func largestPartitionGraph() *graph.Digraph {
	c := benchDBLP(620)
	links := partition.NewLinkIndex(c)
	var largest *graph.Digraph
	for _, docs := range partition.ClosureBudget(c, 1_000_000, nil, benchSeed).Parts {
		if g, _ := links.ElementSubgraph(docs); largest == nil || g.N() > largest.N() {
			largest = g
		}
	}
	return largest
}

func BenchmarkCoverKernelPlain(b *testing.B) { // §3.2 greedy cover of one partition
	cl := graph.NewClosure(largestPartitionGraph())
	b.ReportAllocs()
	b.ResetTimer()
	var st twohop.Stats
	for i := 0; i < b.N; i++ {
		_, st = twohop.Build(cl, twohop.Options{Seed: benchSeed})
	}
	b.ReportMetric(float64(st.Pops), "pops")
}

func BenchmarkCoverKernelDistance(b *testing.B) { // §5.2 distance-aware cover of one partition
	dc := graph.NewDistClosure(largestPartitionGraph())
	b.ReportAllocs()
	b.ResetTimer()
	var st twohop.Stats
	for i := 0; i < b.N; i++ {
		_, st = twohop.BuildDistanceAware(dc, twohop.Options{Seed: benchSeed})
	}
	b.ReportMetric(float64(st.Pops), "pops")
}

// --- ablations (DESIGN.md §6) -------------------------------------------

func BenchmarkBuildFullPSGJoin(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewFullPSG, Seed: benchSeed})
}

func BenchmarkBuildPreselect(b *testing.B) { // §4.2
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, PreselectCenters: true, Seed: benchSeed})
}

func BenchmarkBuildWeightsAtimesD(b *testing.B) { // §4.3
	benchBuild(b, core.Options{Partitioner: core.PartClosureBudget, ClosureBudget: 10_000, Join: core.JoinNewHBar, Weights: WeightAtimesD, Seed: benchSeed})
}

// --- §5 distance-aware build ---------------------------------------------

func BenchmarkBuildDistance(b *testing.B) {
	benchBuild(b, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, WithDistance: true, Seed: benchSeed})
}

// --- §7.2 INEX -------------------------------------------------------------

func BenchmarkBuildINEX(b *testing.B) {
	c := gen.INEX(gen.DefaultINEX(20, 400, benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuild(b, c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: benchSeed})
	}
}

// --- §7.3 maintenance -------------------------------------------------------

func BenchmarkSeparationTest(b *testing.B) {
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
	live := c.LiveDocIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Separates(live[i%len(live)])
	}
}

// deleteBench cycles through victims of the wanted class, rebuilding
// the index (untimed) whenever it runs out.
func deleteBench(b *testing.B, docs int, wantFast bool) {
	opts := core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed}
	var (
		c       *xmlmodel.Collection
		ix      *core.Index
		victims []int
	)
	reset := func() {
		c = benchDBLP(docs)
		ix = mustBuild(b, c, opts)
		victims = victims[:0]
		for _, d := range c.LiveDocIndexes() {
			if ix.Separates(d) == wantFast {
				victims = append(victims, d)
			}
		}
		if len(victims) == 0 {
			b.Skip("no victims of the requested class at this scale")
		}
	}
	reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// keep at least half the collection alive so deletions stay
		// representative
		if len(victims) == 0 || c.NumDocs() < docs/2 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		v := victims[0]
		victims = victims[1:]
		if !c.Alive(v) || ix.Separates(v) != wantFast {
			i--
			continue
		}
		if _, err := ix.DeleteDocument(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteSeparating(b *testing.B) { // Theorem 2 fast path
	deleteBench(b, 150, true)
}

func BenchmarkDeleteNonSeparating(b *testing.B) { // Theorem 3 general path
	deleteBench(b, 100, false)
}

func BenchmarkInsertEdge(b *testing.B) { // §6.1
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
	live := c.LiveDocIndexes()
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := c.GlobalID(live[rng.Intn(len(live))], 1)
		to := c.GlobalID(live[rng.Intn(len(live))], 0)
		if from == to {
			continue
		}
		if err := ix.InsertEdge(from, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDocument(b *testing.B) { // §6.1
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := xmlmodel.NewDocument(fmt.Sprintf("bench%06d.xml", i), "article")
		for e := 0; e < 20; e++ {
			nd.AddElement(int32(e/2), "sec")
		}
		if _, err := ix.InsertDocument(nd); err != nil {
			b.Fatal(err)
		}
	}
}

// --- query latency (in-memory cover vs sealed store) ----------------------

func BenchmarkReachQuery(b *testing.B) {
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
	n := int32(c.NumAllocatedIDs())
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reaches(rng.Int31n(n), rng.Int31n(n))
	}
}

func BenchmarkDistanceQuery(b *testing.B) {
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, WithDistance: true, Seed: benchSeed})
	n := int32(c.NumAllocatedIDs())
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Distance(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescendantsQuery(b *testing.B) {
	c := benchDBLP(200)
	ix := mustBuild(b, c, core.Options{Partitioner: core.PartNodeCapped, NodeCap: 130, Join: core.JoinNewHBar, Seed: benchSeed})
	n := int32(c.NumAllocatedIDs())
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Descendants(rng.Int31n(n))
	}
}

func BenchmarkStoredReachQuery(b *testing.B) { // §3.4 stored mode: sealed segments read through mmap
	c := benchDBLP(200)
	opts := DefaultOptions()
	opts.Partitioner, opts.NodeCap, opts.Seed = NodeCapped, 130, benchSeed
	ix, err := Build(WrapCollection(c), opts)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.hopi")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	n := int32(c.NumAllocatedIDs())
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reaches(rng.Int31n(n), rng.Int31n(n))
	}
}

// --- durable maintenance (WAL-backed store) ---------------------------------

// BenchmarkDurableApply measures a single-document-insert batch
// committed through the write-ahead log (fsync included) against the
// same batch on an in-memory index — the price of durability per batch.
func BenchmarkDurableApply(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			coll := WrapCollection(benchDBLP(100))
			opts := DefaultOptions()
			opts.Seed = benchSeed
			var (
				ix  *Index
				err error
			)
			if durable {
				ix, err = Create(filepath.Join(b.TempDir(), "bench.hopi"), coll, opts)
			} else {
				ix, err = Build(coll, opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd := NewDocument(fmt.Sprintf("bench%06d.xml", i), "article")
				nd.AddElement(nd.Root(), "title")
				cite := nd.AddElement(nd.Root(), "cite")
				batch := NewBatch()
				batch.InsertDocument(nd)
				batch.InsertLink(nd.d.Name, cite, "pub00001.xml", 0)
				if _, err := ix.Apply(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if durable {
				if err := ix.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableInsertLink measures one §6.1 link insert (Fig. 2) on
// a sealed distance-aware store at the maintain-segments scale: the
// citing documents are inserted and sealed before the clock starts, so
// every ancestor and descendant label the insert reads comes out of a
// segment block, and the seals the growing delta triggers are included.
func BenchmarkDurableInsertLink(b *testing.B) {
	const docs = 620
	opts := DefaultOptions()
	opts.Seed = benchSeed
	opts.WithDistance = true
	ix, err := Create(filepath.Join(b.TempDir(), "bench.hopi"), WrapCollection(benchDBLP(docs)), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	name := func(i int) string { return fmt.Sprintf("bench%06d.xml", i) }
	for i := 0; i < b.N; i++ {
		nd := NewDocument(name(i), "article")
		nd.AddElement(nd.Root(), "cite")
		batch := NewBatch()
		batch.InsertDocument(nd)
		if _, err := ix.Apply(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := NewBatch()
		batch.InsertLink(name(i), 1, fmt.Sprintf("pub%05d.xml", rng.Intn(docs)), 0)
		if _, err := ix.Apply(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableCheckpoint measures folding a fixed number of
// batches into the store.
func BenchmarkDurableCheckpoint(b *testing.B) {
	coll := WrapCollection(benchDBLP(100))
	opts := DefaultOptions()
	opts.Seed = benchSeed
	ix, err := Create(filepath.Join(b.TempDir(), "bench.hopi"), coll, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 16; j++ {
			nd := NewDocument(fmt.Sprintf("ck%06d-%02d.xml", i, j), "article")
			nd.AddElement(nd.Root(), "author")
			batch := NewBatch()
			batch.InsertDocument(nd)
			if _, err := ix.Apply(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := ix.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- path expressions -------------------------------------------------------

func BenchmarkPathQuery(b *testing.B) {
	coll := WrapCollection(benchDBLP(200))
	opts := DefaultOptions()
	opts.Seed = benchSeed
	ix, err := Build(coll, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query("//article//author"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathQueryRanked(b *testing.B) {
	coll := WrapCollection(benchDBLP(100))
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = benchSeed
	ix, err := Build(coll, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.QueryRanked("//cite//author"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- snapshot publication -----------------------------------------------------

// BenchmarkSnapshotAfterInsert measures what one write costs the next
// reader: each op applies a benchmark-shaped insert (a new document
// with two outward citation links) to a 2,000-document distance-aware
// index, then publishes the snapshot that observes it. publish-ns/op
// is the Snapshot call alone.
func BenchmarkSnapshotAfterInsert(b *testing.B) {
	const docs = 2000
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = benchSeed
	ix, err := Build(WrapCollection(benchDBLP(docs)), opts)
	if err != nil {
		b.Fatal(err)
	}
	ix.Snapshot()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(benchSeed))
	var publish time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("snap%06d.xml", i)
		nd := NewDocument(name, "article")
		nd.AddElement(nd.Root(), "title")
		nd.AddElement(nd.Root(), "author")
		c1 := nd.AddElement(nd.Root(), "cite")
		c2 := nd.AddElement(nd.Root(), "cite")
		bt := NewBatch()
		bt.InsertDocument(nd)
		bt.InsertLink(name, c1, fmt.Sprintf("pub%05d.xml", rng.Intn(docs)), 0)
		bt.InsertLink(name, c2, fmt.Sprintf("pub%05d.xml", rng.Intn(docs)), 0)
		if _, err := ix.Apply(ctx, bt); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		ix.Snapshot()
		publish += time.Since(start)
	}
	b.ReportMetric(float64(publish.Nanoseconds())/float64(b.N), "publish-ns/op")
}

// --- sharded serving --------------------------------------------------------

// benchRouter stands up a 4-shard in-process router over 200 DBLP
// documents.
func benchRouter(b *testing.B) *Router {
	const docs, shards = 200, 4
	coll := WrapCollection(benchDBLP(docs))
	opts := DefaultOptions()
	opts.Seed = benchSeed
	m, err := BuildShardMap(coll, shards, opts)
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]ShardConn, shards)
	for i, part := range SplitCollection(coll, m) {
		ix, err := Build(part, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ix.Close() })
		conns[i] = NewLocalShard(fmt.Sprintf("s%d", i), ix)
	}
	router, err := NewRouter(conns, m, "")
	if err != nil {
		b.Fatal(err)
	}
	return router
}

// BenchmarkRouterQueryWarm measures the cross-shard // join on a
// quiescent cut: //article//cite//title repeated, so every round after
// the first query reads the router's endpoint graph and the shards'
// memoized closures and delivery tables.
func BenchmarkRouterQueryWarm(b *testing.B) {
	router := benchRouter(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Query(ctx, "//article//cite//title", RouterQueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterQueryUnderInserts measures the cross-shard // join
// under write churn: every op inserts one citing document through a
// 4-shard in-process router, moving one shard's epoch, then runs
// //article//author across the new cut — closure round, endpoint-graph
// assembly and routing included.
func BenchmarkRouterQueryUnderInserts(b *testing.B) {
	const docs = 200
	router := benchRouter(b)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(benchSeed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xml := fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%05d.xml"/></article>`, rng.Intn(docs))
		if _, err := router.InsertXML(ctx, fmt.Sprintf("bench%06d.xml", i), []byte(xml)); err != nil {
			b.Fatal(err)
		}
		if _, err := router.Query(ctx, "//article//author", RouterQueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
