package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/twohop"
)

// TestLargeScaleSpotCheck builds the default experiment-scale DBLP
// collection (≈15k elements, ≈5.3M closure connections) and validates
// the cover against BFS ground truth on sampled rows — the full O(n²)
// Validate would take minutes; a 300-row sample catches systematic
// errors with near-certainty.
func TestLargeScaleSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("large collection")
	}
	c := gen.DBLP(gen.DefaultDBLP(620, 42))
	ix, err := Build(c, Options{
		Partitioner: PartClosureBudget, ClosureBudget: 15_000,
		Join: JoinNewHBar, PreselectCenters: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := c.ElementGraph()
	n := int32(c.NumAllocatedIDs())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		u := rng.Int31n(n)
		reach := g.ReachableFrom(u)
		for probe := 0; probe < 50; probe++ {
			v := rng.Int31n(n)
			want := u == v || reach.Has(int(v))
			if got := ix.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
		// also check one full row boundary: count of descendants
		descs := ix.Descendants(u)
		wantCount := reach.Count()
		if !reach.Has(int(u)) {
			wantCount++ // Descendants includes u itself
		}
		if len(descs) != wantCount {
			t.Fatalf("Descendants(%d): %d nodes, want %d", u, len(descs), wantCount)
		}
	}
}

// TestLargeScaleMaintenanceSpotCheck runs a short maintenance sequence
// at experiment scale and spot-checks the result.
func TestLargeScaleMaintenanceSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("large collection")
	}
	c := gen.DBLP(gen.DefaultDBLP(300, 7))
	ix, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 800, Join: JoinNewHBar, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// delete three separating docs (fast) and one non-separating
	deleted := 0
	for _, d := range append([]int(nil), c.LiveDocIndexes()...) {
		if deleted >= 3 {
			break
		}
		if ix.Separates(d) {
			if _, err := ix.DeleteDocument(d); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	for _, d := range append([]int(nil), c.LiveDocIndexes()...) {
		if !ix.Separates(d) {
			if _, err := ix.DeleteDocument(d); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	// a few edge inserts
	live := c.LiveDocIndexes()
	for k := 0; k < 5; k++ {
		a := live[rng.Intn(len(live))]
		b := live[rng.Intn(len(live))]
		from := c.GlobalID(a, 0)
		to := c.GlobalID(b, 0)
		if from != to {
			if err := ix.InsertEdge(from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	// spot check
	g := c.ElementGraph()
	n := int32(c.NumAllocatedIDs())
	for trial := 0; trial < 100; trial++ {
		u := rng.Int31n(n)
		reach := g.ReachableFrom(u)
		for probe := 0; probe < 30; probe++ {
			v := rng.Int31n(n)
			want := u == v || reach.Has(int(v))
			if got := ix.Reaches(u, v); got != want {
				t.Fatalf("after maintenance: Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestLargeScaleBuildValidates checks the whole pipeline — incremental
// partitioner, worker-pool covers, gather join — against the full
// closure (and distance closure) of the 620-document collection, and
// that the number of workers does not change a single label.
func TestLargeScaleBuildValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("large collection")
	}
	c := gen.DBLP(gen.DefaultDBLP(620, 42))
	for _, withDist := range []bool{false, true} {
		opts := Options{
			Partitioner: PartClosureBudget, ClosureBudget: 1_000_000,
			Join: JoinNewHBar, WithDistance: withDist, Seed: 42, Workers: 1,
		}
		one, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := one.Validate(); err != nil {
			t.Fatalf("withDist=%v: %v", withDist, err)
		}
		opts.Workers = 4
		four, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one.Cover().Out, four.Cover().Out) || !reflect.DeepEqual(one.Cover().In, four.Cover().In) {
			t.Fatalf("withDist=%v: covers built with 1 and 4 workers differ", withDist)
		}
	}
}

// labelHash is FNV-64a over every label of the cover: for each node in
// ID order its Lout and then, after all of them, its Lin, each written
// as the list length followed by every (center, dist), little-endian
// uint32s. Any moved, added, dropped or re-weighted entry changes it.
func labelHash(cov *twohop.Cover) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, labels := range [][][]twohop.Entry{cov.Out, cov.In} {
		for _, l := range labels {
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(l)))
			h.Write(buf[:4])
			for _, e := range l {
				binary.LittleEndian.PutUint32(buf[:4], uint32(e.Center))
				binary.LittleEndian.PutUint32(buf[4:], e.Dist)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestPaperScaleCoverUnchanged builds the benchmark's build-dblp index
// (6,210 documents, default options) and pins what a change to the
// partitioner, the greedy cover kernel or the join must not move: the
// partition count, the cover size, the kernel's counters — they change
// with any change of selection order, even one that happens to land on
// a cover of the same size — and the content of every label.
func TestPaperScaleCoverUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale collection")
	}
	opts := DefaultOptions()
	opts.Seed = 42
	ix, err := Build(gen.DBLP(gen.DefaultDBLP(6210, 42)), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	want := BuildStats{
		Partitions: 993, CoverEntries: 13_698_658,
		CoverCenters: 25_433, CoverPops: 191_776, CoverRecomputes: 68_868,
	}
	got := BuildStats{
		Partitions: st.Partitions, CoverEntries: st.CoverEntries,
		CoverCenters: st.CoverCenters, CoverPops: st.CoverPops, CoverRecomputes: st.CoverRecomputes,
	}
	if got != want {
		t.Errorf("paper-scale build:\n got %+v\nwant %+v", got, want)
	}
	if h := labelHash(ix.Cover()); h != 0xc5812b49b2d5466b {
		t.Errorf("paper-scale build: label hash %#x, want 0xc5812b49b2d5466b", h)
	}
}

// TestDistanceCoverUnchanged pins the distance-aware cover of the
// benchmark's query-mem shape (2,000 documents, default options) the
// same way: its size and the content of every label.
func TestDistanceCoverUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("large collection")
	}
	opts := DefaultOptions()
	opts.Seed = 42
	opts.WithDistance = true
	ix, err := Build(gen.DBLP(gen.DefaultDBLP(2000, 42)), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.CoverEntries != 1_651_369 {
		t.Errorf("distance-aware build: %d entries, want 1651369", st.CoverEntries)
	}
	if h := labelHash(ix.Cover()); h != 0xb823ebd4a5d06c99 {
		t.Errorf("distance-aware build: label hash %#x, want 0xb823ebd4a5d06c99", h)
	}
	if n := int64(st.LargestPartition); n != 8497 || 8*st.LargestClosureBytes >= 4*n*n {
		t.Errorf("distance-aware build: largest partition %d elements with a %d-byte closure, want 8497 under 4·n²/8 bytes",
			n, st.LargestClosureBytes)
	}
}

// TestBuildInternsLabelLists builds a 620-document DBLP collection,
// plain and distance-aware, and checks that the cover stores each
// distinct label list once: the backing arrays of its non-empty lists
// are exactly as many as their distinct contents, and both counts are
// the build's DistinctLists. A write to one owner of a shared list,
// before any snapshot, leaves the other owners' lists as they were.
func TestBuildInternsLabelLists(t *testing.T) {
	for _, withDist := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Seed = 42
		opts.WithDistance = withDist
		ix, err := Build(gen.DBLP(gen.DefaultDBLP(620, 42)), opts)
		if err != nil {
			t.Fatal(err)
		}
		arrays, contents := 0, 0
		for _, lists := range [][][]twohop.Entry{ix.Cover().In, ix.Cover().Out} {
			seen := map[*twohop.Entry]bool{}
			byContent := map[string]bool{}
			var buf []byte
			for _, l := range lists {
				if len(l) == 0 {
					continue
				}
				seen[&l[0]] = true
				buf = buf[:0]
				for _, e := range l {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Center))
					buf = binary.LittleEndian.AppendUint32(buf, e.Dist)
				}
				byContent[string(buf)] = true
			}
			arrays += len(seen)
			contents += len(byContent)
		}
		if st := ix.Stats(); arrays != contents || contents != st.DistinctLists || contents == 0 {
			t.Errorf("withDist=%v: %d backing arrays for %d distinct lists, BuildStats.DistinctLists %d",
				withDist, arrays, contents, st.DistinctLists)
		}

		out := ix.Cover().Out
		owner := map[*twohop.Entry]int{} // backing array → its first owner
		written := false
		for v, l := range out {
			if len(l) < 2 { // a remove from a one-entry list writes nothing in place
				continue
			}
			u, ok := owner[&l[0]]
			if !ok {
				owner[&l[0]] = v
				continue
			}
			want := slices.Clone(out[u])
			ix.Cover().RemoveOut(int32(v), want[0].Center)
			if !slices.Equal(ix.Cover().Lout(int32(u)), want) || !slices.Equal(ix.Cover().Lout(int32(v)), want[1:]) {
				t.Errorf("withDist=%v: removing %d from Lout(%d) left Lout(%d) = %v, want %v",
					withDist, want[0].Center, v, u, ix.Cover().Lout(int32(u)), want)
			}
			written = true
			break
		}
		if !written {
			t.Errorf("withDist=%v: no two owners share a Lout list of two or more entries", withDist)
		}
	}
}

// TestLargestDistClosureCompact: the largest partition of the
// query-mem shape (2,000 documents, default options) has 8,497
// elements, and its distance closure — the covers phase's input — takes
// under 1/8 of the 4·n² bytes of a dense uint32 distance matrix.
func TestLargestDistClosureCompact(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(2000, 42))
	links := partition.NewLinkIndex(c)
	var largest *graph.Digraph
	for _, docs := range partition.ClosureBudget(c, DefaultOptions().ClosureBudget, nil, 42).Parts {
		if g, _ := links.ElementSubgraph(docs); largest == nil || g.N() > largest.N() {
			largest = g
		}
	}
	n := int64(largest.N())
	if n != 8497 {
		t.Fatalf("largest partition has %d elements, want 8497", n)
	}
	dc := graph.NewDistClosure(largest)
	if dense := 4 * n * n; 8*dc.Bytes() >= dense {
		t.Errorf("distance closure of %d elements takes %d bytes, want under %d (1/8 of a dense matrix)", n, dc.Bytes(), dense/8)
	}
	t.Logf("%d elements, %d connections: %d bytes against %d dense", n, len(dc.Dist), dc.Bytes(), 4*n*n)
}
