package twohop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/xmlmodel"
)

// Differential tests: build.go's arena kernel against the kernel it
// replaced (oracle_test.go). "Equal" is label for label — every Lin and
// Lout list, distances included — plus the three Stats counters, which
// pin the pop order: a kernel that broke a tie differently would show a
// changed count even where it happened to find the same cover.

func sameCover(t *testing.T, name string, want, got *Cover, wantStats, gotStats Stats) {
	t.Helper()
	if gotStats != wantStats {
		t.Errorf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
	}
	if !reflect.DeepEqual(got.In, want.In) || !reflect.DeepEqual(got.Out, want.Out) {
		t.Fatalf("%s: cover differs from the oracle's (%d entries, oracle %d)", name, got.Size(), want.Size())
	}
}

// sameBuilds checks both modes on one graph.
func sameBuilds(t *testing.T, name string, g *graph.Digraph, opts Options) {
	t.Helper()
	cl := graph.NewClosure(g)
	want, wantStats := oracleBuild(cl, opts)
	got, gotStats := Build(cl, opts)
	sameCover(t, name+" plain", want, got, wantStats, gotStats)

	want, wantStats = oracleBuildDistanceAware(newOracleMatrix(g), opts)
	got, gotStats = BuildDistanceAware(graph.NewDistClosure(g), opts)
	sameCover(t, name+" distance-aware", want, got, wantStats, gotStats)
}

// samePartitionBuilds runs sameBuilds on every partition's element
// graph, seeded per partition as core.buildPartitionCovers seeds them;
// with preselect, cross-link targets are preselected centers (§4.2).
func samePartitionBuilds(t *testing.T, name string, c *xmlmodel.Collection, p *partition.Partitioning, preselect bool) {
	t.Helper()
	targets := map[int][]int32{}
	if preselect {
		for _, l := range p.CrossLinks {
			pi := p.PartOfID(c, l.To)
			targets[pi] = append(targets[pi], l.To)
		}
	}
	links := partition.NewLinkIndex(c)
	for pi, docs := range p.Parts {
		g, globals := links.ElementSubgraph(docs)
		local := make(map[int32]int32, len(targets[pi]))
		for li, id := range globals {
			local[id] = int32(li)
		}
		opts := Options{Seed: 42 + int64(pi)}
		for _, id := range targets[pi] {
			opts.Preselect = append(opts.Preselect, local[id])
		}
		sameBuilds(t, fmt.Sprintf("%s part %d (%d elements)", name, pi, len(globals)), g, opts)
	}
}

func TestKernelMatchesOracleDBLP(t *testing.T) {
	docs := 620
	if testing.Short() {
		docs = 200
	}
	c := gen.DBLP(gen.DefaultDBLP(docs, 42))
	samePartitionBuilds(t, "dblp", c, partition.ClosureBudget(c, 1_000_000, nil, 42), false)
}

func TestKernelMatchesOraclePreselect(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(200, 7))
	p := partition.ClosureBudget(c, 15_000, nil, 7)
	if len(p.CrossLinks) == 0 {
		t.Fatal("no cross links, nothing would be preselected")
	}
	samePartitionBuilds(t, "dblp preselect", c, p, true)
}

func TestKernelMatchesOracleINEX(t *testing.T) {
	c := gen.INEX(gen.DefaultINEX(8, 150, 42))
	samePartitionBuilds(t, "inex", c, partition.Single(c), false)
}

// Links that close cycles between documents (what core/cyclic.go
// exists for) put whole strongly connected components into one center
// graph: u ∈ Cin(w) ∩ Cout(w), rows that name their own source.
func TestKernelMatchesOracleCyclic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := gen.Random(gen.RandomConfig{Docs: 24, MaxElems: 9, Links: 40, Seed: seed, LinkCycle: true})
		cyclic := false
		for _, members := range graph.SCC(c.ElementGraph()).Comps {
			cyclic = cyclic || len(members) > 1
		}
		if !cyclic {
			t.Fatalf("seed %d: the generated collection has no cycle", seed)
		}
		samePartitionBuilds(t, fmt.Sprintf("cyclic seed %d whole", seed), c, partition.Whole(c), false)
		samePartitionBuilds(t, fmt.Sprintf("cyclic seed %d capped", seed), c, partition.NodeCapped(c, 60, nil, seed), true)
	}
}

func TestKernelMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(59)
		g := randomDigraph(rng, n, rng.Intn(4*n))
		opts := Options{Seed: seed}
		for k := rng.Intn(4); k > 0 && seed%3 == 0; k-- {
			opts.Preselect = append(opts.Preselect, int32(rng.Intn(n)))
		}
		sameBuilds(t, fmt.Sprintf("random seed %d (n=%d)", seed, n), g, opts)
	}
}

// kernelTestGraph is a partition-sized graph with deep ancestor and
// descendant sets: a citation DAG over small trees, like gen.DBLP's.
func kernelTestGraph() *graph.Digraph {
	c := gen.DBLP(gen.DefaultDBLP(60, 3))
	g, _ := partition.ElementSubgraph(c, partition.Whole(c).Parts[0])
	return g
}

// TestWarmPopAllocatesNothing: once the arena has seen the largest
// center graph, everything a queue pop does with it — materialize,
// peel, reduce to the remainder, peel again — allocates nothing.
func TestWarmPopAllocatesNothing(t *testing.T) {
	g := kernelTestGraph()
	for _, dc := range []*graph.DistClosure{nil, graph.NewDistClosure(g)} {
		cl := graph.NewClosure(g)
		if dc != nil {
			cl = &dc.Closure
		}
		b := newBuilder(cl, dc, Options{})
		edges := 0
		everyPop := func() {
			for w := int32(0); w < int32(b.n); w++ {
				if !b.centerGraph(w) {
					continue
				}
				edges += len(b.s.inAdj)
				if _, ncut := b.peel(); ncut > 0 && b.remainder() {
					b.peel()
				}
			}
		}
		everyPop() // warm-up: grows every arena slice to its final size
		if edges == 0 {
			t.Fatal("no center graph has an edge")
		}
		if allocs := testing.AllocsPerRun(3, everyPop); allocs != 0 {
			t.Errorf("distance-aware=%v: %.0f allocations in warmed-up pops over %d nodes, want 0", dc != nil, allocs, b.n)
		}
	}
}

// TestBuildAllocationsLinear: a whole Build allocates for what it
// returns and for its fixed-size state — a few per node, a few per
// applied center — and not per pop or per center-graph edge.
func TestBuildAllocationsLinear(t *testing.T) {
	g := kernelTestGraph()
	cl, dc := graph.NewClosure(g), graph.NewDistClosure(g)
	for _, withDist := range []bool{false, true} {
		var stats Stats
		allocs := testing.AllocsPerRun(3, func() {
			if withDist {
				_, stats = BuildDistanceAware(dc, Options{Seed: 1})
			} else {
				_, stats = Build(cl, Options{Seed: 1})
			}
		})
		if stats.Pops < 4*stats.Centers {
			t.Fatalf("distance-aware=%v: %+v — too few stale pops to tell per-pop from per-center cost", withDist, stats)
		}
		if ceiling := float64(4*(g.N()+stats.Centers) + 64); allocs > ceiling {
			t.Errorf("distance-aware=%v: %.0f allocations for %d nodes and %+v, want ≤ %.0f", withDist, allocs, g.N(), stats, ceiling)
		}
		t.Logf("distance-aware=%v: %.0f allocations, %d nodes, %+v", withDist, allocs, g.N(), stats)
	}
}
