package partition

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// chainCollection builds n small documents where doc i links to doc
// i+1 (a citation chain), each with k elements.
func chainCollection(n, k int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < n; i++ {
		d := xmlmodel.NewDocument("", "pub")
		for j := 1; j < k; j++ {
			d.AddElement(0, "sec")
		}
		c.AddDocument(d)
	}
	for i := 0; i < n-1; i++ {
		// link from last element of doc i to root of doc i+1
		if err := c.AddLink(c.GlobalID(i, int32(k-1)), c.GlobalID(i+1, 0)); err != nil {
			panic(err)
		}
	}
	return c
}

// randomCollection builds a small random linked collection.
func randomCollection(rng *rand.Rand, nDocs, maxElems, nLinks int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < nDocs; i++ {
		d := xmlmodel.NewDocument("", "r")
		k := 1 + rng.Intn(maxElems)
		for j := 1; j < k; j++ {
			parent := int32(rng.Intn(j))
			d.AddElement(parent, "e")
		}
		c.AddDocument(d)
	}
	for i := 0; i < nLinks; i++ {
		fd := rng.Intn(nDocs)
		td := rng.Intn(nDocs)
		fl := int32(rng.Intn(c.Docs[fd].Len()))
		tl := int32(rng.Intn(c.Docs[td].Len()))
		if err := c.AddLink(c.GlobalID(fd, fl), c.GlobalID(td, tl)); err != nil {
			panic(err)
		}
	}
	return c
}

func TestWholeAndSingle(t *testing.T) {
	c := chainCollection(5, 4)
	w := Whole(c)
	if w.NumParts() != 1 || len(w.CrossLinks) != 0 {
		t.Errorf("Whole: parts=%d cross=%d", w.NumParts(), len(w.CrossLinks))
	}
	if err := w.Validate(c); err != nil {
		t.Fatal(err)
	}
	s := Single(c)
	if s.NumParts() != 5 {
		t.Errorf("Single: parts=%d", s.NumParts())
	}
	if len(s.CrossLinks) != 4 {
		t.Errorf("Single: cross=%d, want 4", len(s.CrossLinks))
	}
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCappedRespectsCap(t *testing.T) {
	c := chainCollection(10, 4)
	p := NodeCapped(c, 8, nil, 1) // two docs of 4 elements per partition
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	for _, docs := range p.Parts {
		nodes := 0
		for _, d := range docs {
			nodes += c.Docs[d].Len()
		}
		if nodes > 8 {
			t.Errorf("partition %v has %d nodes, cap 8", docs, nodes)
		}
	}
	if p.NumParts() < 5 {
		t.Errorf("too few partitions: %d", p.NumParts())
	}
}

func TestNodeCappedOversizedDocAlone(t *testing.T) {
	c := chainCollection(3, 10)
	p := NodeCapped(c, 5, nil, 1) // every doc exceeds the cap
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 3 {
		t.Errorf("parts = %d, want 3 singletons", p.NumParts())
	}
}

func TestClosureBudgetRespectsBudget(t *testing.T) {
	c := chainCollection(12, 4)
	const budget = 60
	p := ClosureBudget(c, budget, nil, 1)
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	for _, docs := range p.Parts {
		if len(docs) == 1 {
			continue // single docs may exceed the budget by definition
		}
		g, _ := ElementSubgraph(c, docs)
		if got := graph.CountConnections(g); got > budget {
			t.Errorf("partition %v closure %d > budget %d", docs, got, budget)
		}
	}
}

func TestClosureBudgetFillsMoreThanNodeCap(t *testing.T) {
	// The new partitioner should produce no more partitions than a
	// conservative node cap tuned to the same memory (here: chains are
	// sparse, so a closure budget packs many docs).
	c := chainCollection(20, 5)
	nc := NodeCapped(c, 10, nil, 1)     // 2 docs per partition
	cb := ClosureBudget(c, 500, nil, 1) // plenty of closure budget
	if cb.NumParts() >= nc.NumParts() {
		t.Errorf("closure-budget parts %d, node-capped %d: new partitioner should fill partitions fuller",
			cb.NumParts(), nc.NumParts())
	}
	if len(cb.CrossLinks) >= len(nc.CrossLinks) {
		t.Errorf("closure-budget cross links %d, node-capped %d", len(cb.CrossLinks), len(nc.CrossLinks))
	}
}

func TestGrowDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCollection(rng, 30, 8, 40)
	p1 := NodeCapped(c, 25, nil, 7)
	p2 := NodeCapped(c, 25, nil, 7)
	if p1.NumParts() != p2.NumParts() {
		t.Fatal("partitioner not deterministic")
	}
	for i := range p1.PartOf {
		if p1.PartOf[i] != p2.PartOf[i] {
			t.Fatal("assignments differ")
		}
	}
}

func TestPartitioningRandomValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCollection(rng, 20, 10, 30)
		for _, p := range []*Partitioning{
			NodeCapped(c, 30, nil, seed),
			ClosureBudget(c, 200, nil, seed),
			Single(c),
			Whole(c),
		} {
			if err := p.Validate(c); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestElementSubgraphKeepsInternalLinksOnly(t *testing.T) {
	c := chainCollection(4, 3)
	g, globals := ElementSubgraph(c, []int{1, 2})
	if g.N() != 6 {
		t.Fatalf("N = %d", g.N())
	}
	// internal link doc1→doc2 present: global (1,2)→(2,0)
	fromG := c.GlobalID(1, 2)
	toG := c.GlobalID(2, 0)
	var fromL, toL int32 = -1, -1
	for i, id := range globals {
		if id == fromG {
			fromL = int32(i)
		}
		if id == toG {
			toL = int32(i)
		}
	}
	if fromL < 0 || toL < 0 {
		t.Fatal("globals missing")
	}
	if !g.HasEdge(fromL, toL) {
		t.Error("internal cross-doc link missing")
	}
	// tree edges of doc 1 present
	if !g.HasEdge(0, 1) {
		t.Error("tree edge missing")
	}
}

func TestPartitionCoverageOfElements(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCollection(rng, 15, 6, 20)
	p := NodeCapped(c, 20, nil, 5)
	seen := map[int32]bool{}
	for _, docs := range p.Parts {
		_, globals := ElementSubgraph(c, docs)
		for _, id := range globals {
			if seen[id] {
				t.Fatalf("element %d in two partitions", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != c.NumElements() {
		t.Errorf("covered %d elements, want %d", len(seen), c.NumElements())
	}
}

// cyclicCollection builds a random collection whose documents carry
// intra links in both tree directions and whose inter-document links
// run both ways, so cycles within and across documents are common.
func cyclicCollection(rng *rand.Rand, nDocs, maxElems, nLinks int) *xmlmodel.Collection {
	c := randomCollection(rng, nDocs, maxElems, nLinks)
	for _, d := range c.Docs {
		for i := rng.Intn(3); i > 0 && d.Len() > 1; i-- {
			d.AddIntraLink(int32(rng.Intn(d.Len())), int32(rng.Intn(d.Len())))
		}
	}
	for i := 0; i < nLinks/2 && len(c.Links) > 0; i++ {
		l := c.Links[rng.Intn(len(c.Links))]
		fd, td := c.DocOfID(l.To), c.DocOfID(l.From)
		from := c.GlobalID(fd, int32(rng.Intn(c.Docs[fd].Len())))
		to := c.GlobalID(td, int32(rng.Intn(c.Docs[td].Len())))
		if err := c.AddLink(from, to); err != nil {
			panic(err)
		}
	}
	return c
}

// TestIncrementalClosureMatchesRecompute adds documents one at a time
// and checks the maintained rows and connection count against a fresh
// closure of the element subgraph after every addition.
func TestIncrementalClosureMatchesRecompute(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cyclicCollection(rng, 2+rng.Intn(9), 1+rng.Intn(12), rng.Intn(25))
		st := newClosureState(c)
		order := rng.Perm(len(c.Docs))
		if seed%5 == 0 { // the state is reused across partitions
			st.addDoc(order[len(order)-1])
			st.reset()
		}
		for k, d := range order {
			st.addDoc(d)
			g, globals := ElementSubgraph(c, order[:k+1])
			want := graph.NewClosure(g)
			if st.conns != want.Connections() {
				t.Fatalf("seed %d after %d docs: conns = %d, want %d", seed, k+1, st.conns, want.Connections())
			}
			local := func(id int32) int32 {
				di := c.DocOfID(id)
				return st.base[di] + id - c.GlobalID(di, 0)
			}
			for u, gu := range globals {
				for v, gv := range globals {
					if u != v && st.row(local(gu)).Has(int(local(gv))) != want.Has(int32(u), int32(v)) {
						t.Fatalf("seed %d after %d docs: reach(%d,%d) = %v, want %v",
							seed, k+1, gu, gv, !want.Has(int32(u), int32(v)), want.Has(int32(u), int32(v)))
					}
				}
			}
		}
	}
}

// referenceClosureBudget is the recompute-per-candidate partitioner
// ClosureBudget replaced, kept as its oracle: every candidate costs a
// fresh ElementSubgraph and a full closure, and every frontier pick
// sorts the keys.
func referenceClosureBudget(c *xmlmodel.Collection, maxConnections int64, w map[[2]int32]float64, seed int64) *Partitioning {
	rng := rand.New(rand.NewSource(seed))
	order := append([]int(nil), c.LiveDocIndexes()...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	partOf := make([]int, len(c.Docs))
	for i := range partOf {
		partOf[i] = -1
	}
	docG, linkCount := c.DocGraph()
	weight := func(a, b int32) float64 {
		if w != nil {
			return w[[2]int32{a, b}]
		}
		return float64(linkCount[[2]int32{a, b}])
	}
	assigned := make([]bool, len(c.Docs))
	var parts [][]int
	for _, seedDoc := range order {
		if assigned[seedDoc] {
			continue
		}
		var docs []int
		frontier := map[int]float64{}
		add := func(d int) {
			assigned[d] = true
			partOf[d] = len(parts)
			docs = append(docs, d)
			for _, nb := range docG.Succ(int32(d)) {
				if !assigned[nb] {
					frontier[int(nb)] += weight(int32(d), nb) + 1e-9
				}
			}
			for _, nb := range docG.Pred(int32(d)) {
				if !assigned[nb] {
					frontier[int(nb)] += weight(nb, int32(d)) + 1e-9
				}
			}
		}
		add(seedDoc)
		for len(frontier) > 0 {
			keys := make([]int, 0, len(frontier))
			for d := range frontier {
				keys = append(keys, d)
			}
			sort.Ints(keys)
			best, bestW := -1, -1.0
			for _, d := range keys {
				if fw := frontier[d]; fw > bestW {
					best, bestW = d, fw
				}
			}
			delete(frontier, best)
			g, _ := ElementSubgraph(c, append(append([]int(nil), docs...), best))
			if graph.NewClosure(g).Connections() > maxConnections {
				break
			}
			add(best)
		}
		parts = append(parts, docs)
	}
	return &Partitioning{Parts: parts, PartOf: partOf, CrossLinks: crossLinks(c, partOf)}
}

func TestClosureBudgetMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		c := cyclicCollection(rng, 25, 10, 45)
		for _, scheme := range []WeightScheme{WeightLinks, WeightAtimesD, WeightAplusD} {
			var w map[[2]int32]float64
			if scheme != WeightLinks {
				w = DocEdgeWeights(c, scheme, DefaultSkeletonDepth)
			}
			for _, budget := range []int64{1, 40, 200, 1000, 1 << 40} {
				got := ClosureBudget(c, budget, w, seed)
				want := referenceClosureBudget(c, budget, w, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %v budget %d:\n got %v\nwant %v", seed, scheme, budget, got.Parts, want.Parts)
				}
			}
		}
	}
}

// TestClosureBudgetStaysIncremental is the non-timing guard against
// per-candidate recomputation: on the 1,000-document DBLP shape the
// recompute-based partitioner allocated ~2 GB; the incremental one
// reuses one closure state.
func TestClosureBudgetStaysIncremental(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(1000, 42))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := ClosureBudget(c, 1_000_000, nil, 42)
	runtime.ReadMemStats(&after)
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 200 {
		t.Errorf("ClosureBudget allocated %d MB, want < 200", mb)
	}
	if p.NumParts() != 203 || len(p.CrossLinks) != 1085 {
		t.Errorf("parts = %d, cross links = %d, want 203 and 1085", p.NumParts(), len(p.CrossLinks))
	}
}
