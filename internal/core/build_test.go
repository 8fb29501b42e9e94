package core

import (
	"math/rand"
	"testing"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/xmlmodel"
)

// citeCollection builds n small linked documents: doc i cites a few
// earlier docs (preferential to recent ones), giving a DAG-ish
// document graph with occasional intra links.
func citeCollection(rng *rand.Rand, n int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < n; i++ {
		d := xmlmodel.NewDocument("", "pub")
		k := 3 + rng.Intn(5)
		for j := 1; j < k; j++ {
			d.AddElement(int32(rng.Intn(j)), "sec")
		}
		if rng.Intn(3) == 0 && d.Len() > 2 {
			d.AddIntraLink(int32(d.Len()-1), 1)
		}
		c.AddDocument(d)
	}
	for i := 1; i < n; i++ {
		cites := rng.Intn(3)
		for j := 0; j < cites; j++ {
			target := rng.Intn(i)
			from := int32(rng.Intn(c.Docs[i].Len()))
			if err := c.AddLink(c.GlobalID(i, from), c.GlobalID(target, 0)); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// cyclicCollection adds back-links so the document graph has cycles.
func cyclicCollection(rng *rand.Rand, n int) *xmlmodel.Collection {
	c := citeCollection(rng, n)
	for i := 0; i+1 < n; i += 3 {
		if err := c.AddLink(c.GlobalID(i, 0), c.GlobalID(i+1, 0)); err != nil {
			panic(err)
		}
		if err := c.AddLink(c.GlobalID(i+1, 0), c.GlobalID(i, 0)); err != nil {
			panic(err)
		}
	}
	return c
}

func allOptionCombos(seed int64) []Options {
	return []Options{
		{Partitioner: PartWhole, Join: JoinNewHBar, Seed: seed},
		{Partitioner: PartSingle, Join: JoinNewHBar, Seed: seed},
		{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, Seed: seed},
		{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewFullPSG, Seed: seed},
		{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinOldIncremental, Seed: seed},
		{Partitioner: PartClosureBudget, ClosureBudget: 150, Join: JoinNewHBar, Seed: seed},
		{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, PreselectCenters: true, Seed: seed},
		{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, Weights: partition.WeightAtimesD, Seed: seed},
	}
}

func TestBuildAllCombosCorrect(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 12)
		for i, opts := range allOptionCombos(seed) {
			ix, err := Build(c, opts)
			if err != nil {
				t.Fatalf("seed %d combo %d: %v", seed, i, err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d combo %d (%s/%s): %v", seed, i, opts.Partitioner, opts.Join, err)
			}
		}
	}
}

func TestBuildCyclicCollections(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cyclicCollection(rng, 10)
		for _, opts := range []Options{
			{Partitioner: PartNodeCapped, NodeCap: 15, Join: JoinNewHBar, Seed: seed},
			{Partitioner: PartNodeCapped, NodeCap: 15, Join: JoinOldIncremental, Seed: seed},
		} {
			ix, err := Build(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, opts.Join, err)
			}
		}
	}
}

func TestBuildWithDistanceAllJoins(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 10)
		for _, j := range []JoinAlgorithm{JoinNewHBar, JoinNewFullPSG, JoinOldIncremental} {
			ix, err := Build(c, Options{
				Partitioner: PartNodeCapped, NodeCap: 18, Join: j,
				WithDistance: true, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d join %s: %v", seed, j, err)
			}
		}
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := citeCollection(rng, 15)
	ix, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 15, Join: JoinNewHBar, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Partitions < 2 {
		t.Errorf("Partitions = %d", st.Partitions)
	}
	if st.CoverEntries != ix.Size() || st.CoverEntries == 0 {
		t.Errorf("CoverEntries = %d, Size = %d", st.CoverEntries, ix.Size())
	}
	if st.TotalTime <= 0 {
		t.Error("TotalTime not measured")
	}
	if st.LargestPartition == 0 || st.LargestPartition > 15 {
		t.Errorf("LargestPartition = %d", st.LargestPartition)
	}
	if st.LargestClosureBytes <= 0 {
		t.Errorf("LargestClosureBytes = %d", st.LargestClosureBytes)
	}
}

func TestBuildOptionValidation(t *testing.T) {
	c := xmlmodel.NewCollection()
	c.AddDocument(xmlmodel.NewDocument("", "a"))
	if _, err := Build(c, Options{Partitioner: PartNodeCapped}); err == nil {
		t.Error("NodeCap 0 accepted")
	}
	if _, err := Build(c, Options{Partitioner: PartClosureBudget}); err == nil {
		t.Error("ClosureBudget 0 accepted")
	}
}

func TestQueriesOnBuiltIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := citeCollection(rng, 10)
	ix, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 15, Join: JoinNewHBar, WithDistance: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := c.ElementGraph()
	dc := graph.NewDistClosure(g)
	n := int32(c.NumAllocatedIDs())
	for u := int32(0); u < n; u++ {
		want := map[int32]bool{u: true}
		g.ReachableFrom(u).ForEach(func(v int) bool { want[int32(v)] = true; return true })
		desc := ix.Descendants(u)
		if len(desc) != len(want) {
			t.Fatalf("Descendants(%d): got %d want %d", u, len(desc), len(want))
		}
		for _, v := range desc {
			if !want[v] {
				t.Fatalf("Descendants(%d) contains %d", u, v)
			}
			d, err := ix.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if d != dc.D(u, v) {
				t.Fatalf("Distance(%d,%d) = %d want %d", u, v, d, dc.D(u, v))
			}
		}
		wantAnc := map[int32]bool{u: true}
		g.ReachingTo(u).ForEach(func(a int) bool { wantAnc[int32(a)] = true; return true })
		anc := ix.Ancestors(u)
		if len(anc) != len(wantAnc) {
			t.Fatalf("Ancestors(%d): got %d want %d", u, len(anc), len(wantAnc))
		}
	}
}

func TestDistanceOnPlainIndexErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := citeCollection(rng, 5)
	ix, err := Build(c, Options{Partitioner: PartWhole, Join: JoinNewHBar})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Distance(0, 1); err == nil {
		t.Error("Distance on plain index should error")
	}
}

func TestCompressionRatioSane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := citeCollection(rng, 25)
	ix, err := Build(c, Options{Partitioner: PartWhole, Join: JoinNewHBar, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r := ix.CompressionRatio(); r < 1 {
		t.Errorf("centralized compression ratio %.2f < 1", r)
	}
}

func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := citeCollection(rng, 14)
	opts := Options{Partitioner: PartNodeCapped, NodeCap: 18, Join: JoinNewHBar, Seed: 9, Workers: 2}
	a, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Errorf("builds differ: %d vs %d entries", a.Size(), b.Size())
	}
}
