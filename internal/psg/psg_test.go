package psg

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// buildParts computes the per-partition structures the joins consume,
// exactly the way the core pipeline does.
func buildParts(c *xmlmodel.Collection, p *partition.Partitioning, withDist bool) []*PartitionData {
	parts := make([]*PartitionData, p.NumParts())
	for pi, docs := range p.Parts {
		g, globals := partition.ElementSubgraph(c, docs)
		var cov *twohop.Cover
		if withDist {
			dc := graph.NewDistClosure(g)
			cov, _ = twohop.BuildDistanceAware(dc, twohop.Options{})
		} else {
			cl := graph.NewClosure(g)
			cov, _ = twohop.Build(cl, twohop.Options{})
		}
		parts[pi] = NewPartitionData(docs, g, globals, cov)
	}
	return parts
}

// chainCollection: n docs of k elements, doc i's last element links to
// doc i+1's root.
func chainCollection(n, k int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < n; i++ {
		d := xmlmodel.NewDocument("", "pub")
		for j := 1; j < k; j++ {
			d.AddElement(int32((j-1)/2), "sec") // small binary-ish tree
		}
		c.AddDocument(d)
	}
	for i := 0; i < n-1; i++ {
		if err := c.AddLink(c.GlobalID(i, int32(k-1)), c.GlobalID(i+1, 0)); err != nil {
			panic(err)
		}
	}
	return c
}

func randomCollection(rng *rand.Rand, nDocs, maxElems, nLinks int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < nDocs; i++ {
		d := xmlmodel.NewDocument("", "r")
		k := 1 + rng.Intn(maxElems)
		for j := 1; j < k; j++ {
			d.AddElement(int32(rng.Intn(j)), "e")
		}
		c.AddDocument(d)
	}
	for i := 0; i < nLinks; i++ {
		fd, td := rng.Intn(nDocs), rng.Intn(nDocs)
		fl := int32(rng.Intn(c.Docs[fd].Len()))
		tl := int32(rng.Intn(c.Docs[td].Len()))
		if err := c.AddLink(c.GlobalID(fd, fl), c.GlobalID(td, tl)); err != nil {
			panic(err)
		}
	}
	return c
}

func partOfFunc(c *xmlmodel.Collection, p *partition.Partitioning) func(int32) int {
	return func(id int32) int { return p.PartOfID(c, id) }
}

func TestPSGBuildChain(t *testing.T) {
	c := chainCollection(4, 3)
	p := partition.NodeCapped(c, 6, nil, 1) // 2 docs per partition
	parts := buildParts(c, p, false)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, false)
	if len(s.Nodes) == 0 {
		t.Fatal("PSG empty despite cross links")
	}
	// every cross link's endpoints are PSG nodes and the link is an edge
	for _, l := range p.CrossLinks {
		f, ok1 := s.Index[l.From]
		tt, ok2 := s.Index[l.To]
		if !ok1 || !ok2 {
			t.Fatal("cross-link endpoint missing from PSG")
		}
		if !s.G.HasEdge(f, tt) {
			t.Error("cross link not a PSG edge")
		}
		if !s.IsSource[f] || !s.IsTarget[tt] {
			t.Error("source/target roles wrong")
		}
	}
}

func TestPSGIntraEdgesRequireConnection(t *testing.T) {
	// One partition containing a doc where the incoming link target is
	// a LEAF — it cannot reach the outgoing link source, so no
	// target→source edge may appear.
	c := xmlmodel.NewCollection()
	d0 := xmlmodel.NewDocument("", "a")
	d0.AddElement(0, "b") // leaf 1: link source
	c.AddDocument(d0)
	d1 := xmlmodel.NewDocument("", "a")
	d1.AddElement(0, "b") // leaf 1: incoming target
	d1.AddElement(0, "c") // leaf 2: outgoing source
	c.AddDocument(d1)
	d2 := xmlmodel.NewDocument("", "a")
	c.AddDocument(d2)
	// d0/1 → d1/1 (target = leaf), d1/2 → d2/0
	if err := c.AddLink(c.GlobalID(0, 1), c.GlobalID(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(1, 2), c.GlobalID(2, 0)); err != nil {
		t.Fatal(err)
	}
	p := partition.Single(c)
	parts := buildParts(c, p, false)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, false)
	tgt := s.Index[c.GlobalID(1, 1)]
	src := s.Index[c.GlobalID(1, 2)]
	if s.G.HasEdge(tgt, src) {
		t.Error("PSG has target→source edge for unconnected endpoints")
	}
	// and the root→child connection case: make a collection where the
	// target is the root — edge must exist.
	c2 := chainCollection(3, 3)
	p2 := partition.Single(c2)
	parts2 := buildParts(c2, p2, false)
	s2 := Build(c2, p2.CrossLinks, partOfFunc(c2, p2), parts2, false)
	tgt2 := s2.Index[c2.GlobalID(1, 0)] // root of doc 1, target of link 0→1
	src2 := s2.Index[c2.GlobalID(1, 2)] // last element of doc 1, source of link 1→2
	if !s2.G.HasEdge(tgt2, src2) {
		t.Error("PSG missing target→source edge for connected endpoints")
	}
}

func TestComputeHBarChain(t *testing.T) {
	c := chainCollection(4, 3)
	p := partition.Single(c)
	parts := buildParts(c, p, false)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, false)
	hb := ComputeHBar(s, false, 2)
	// the first link source must reach all 3 downstream targets
	src := s.Index[c.GlobalID(0, 2)]
	if got := len(hb.OutTargets[src]); got != 3 {
		t.Errorf("first source reaches %d targets, want 3", got)
	}
	// the last target reaches nothing; it must not appear as a source
	if got := hb.OutTargets[s.Index[c.GlobalID(3, 0)]]; got != nil {
		t.Errorf("pure target has out entries %v", got)
	}
}

// joinAndVerify builds the ground truth closure of the element graph
// and checks a joined cover against it.
func joinAndVerify(t *testing.T, c *xmlmodel.Collection, cov *twohop.Cover) {
	t.Helper()
	cl := graph.NewClosure(c.ElementGraph())
	if err := twohop.Verify(cov, cl); err != nil {
		t.Fatal(err)
	}
}

func TestJoinNewChain(t *testing.T) {
	c := chainCollection(5, 4)
	p := partition.NodeCapped(c, 8, nil, 1)
	parts := buildParts(c, p, false)
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{})
	joinAndVerify(t, c, cov)
}

func TestJoinNewNoCrossLinks(t *testing.T) {
	c := chainCollection(3, 4)
	p := partition.Whole(c)
	parts := buildParts(c, p, false)
	cov := JoinNew(c, nil, partOfFunc(c, p), parts, NewJoinOptions{})
	joinAndVerify(t, c, cov)
}

func TestJoinOldChain(t *testing.T) {
	c := chainCollection(5, 4)
	p := partition.NodeCapped(c, 8, nil, 1)
	parts := buildParts(c, p, false)
	cov := JoinOld(c, p.CrossLinks, parts, false)
	joinAndVerify(t, c, cov)
}

// Property: both joins produce correct covers on random collections
// with arbitrary partitionings, including cyclic link structures.
func TestJoinsRandomCorrect(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCollection(rng, 3+rng.Intn(8), 6, rng.Intn(14))
		for _, mk := range []func() *partition.Partitioning{
			func() *partition.Partitioning { return partition.Single(c) },
			func() *partition.Partitioning { return partition.NodeCapped(c, 12, nil, seed) },
			func() *partition.Partitioning { return partition.ClosureBudget(c, 80, nil, seed) },
		} {
			p := mk()
			parts := buildParts(c, p, false)
			covNew := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{})
			joinAndVerify(t, c, covNew)
			covFull := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{FullPSGCover: true, Seed: seed})
			joinAndVerify(t, c, covFull)
			covOld := JoinOld(c, p.CrossLinks, parts, false)
			joinAndVerify(t, c, covOld)
		}
	}
}

// Property: distance-aware joins report exact global distances.
func TestJoinsRandomDistanceExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCollection(rng, 3+rng.Intn(6), 5, rng.Intn(10))
		dcGlobal := graph.NewDistClosure(c.ElementGraph())
		p := partition.NodeCapped(c, 10, nil, seed)
		parts := buildParts(c, p, true)

		covNew := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{WithDist: true})
		if err := twohop.VerifyDistance(covNew, dcGlobal); err != nil {
			t.Fatalf("seed %d JoinNew: %v", seed, err)
		}
		covFull := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{WithDist: true, FullPSGCover: true, Seed: seed})
		if err := twohop.VerifyDistance(covFull, dcGlobal); err != nil {
			t.Fatalf("seed %d JoinNew(full): %v", seed, err)
		}
		covOld := JoinOld(c, p.CrossLinks, parts, true)
		if err := twohop.VerifyDistance(covOld, dcGlobal); err != nil {
			t.Fatalf("seed %d JoinOld: %v", seed, err)
		}
	}
}

// TestIntegrateLinkCreatesConnections: the old join over two
// partitions, chains 0→1 and 2→3, with the cross link 1→2 between them,
// covers the connections the link creates and no others.
func TestIntegrateLinkCreatesConnections(t *testing.T) {
	c := chainCollection(2, 2)
	p := &partition.Partitioning{Parts: [][]int{{0}, {1}}, CrossLinks: c.Links}
	cov := JoinOld(c, p.CrossLinks, buildParts(c, p, false), false)
	for _, pair := range [][2]int32{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		if !cov.Reaches(pair[0], pair[1]) {
			t.Errorf("after integrate, %d should reach %d", pair[0], pair[1])
		}
	}
	if cov.Reaches(2, 0) {
		t.Error("phantom connection 2→0")
	}
	joinAndVerify(t, c, cov)
}

func BenchmarkJoinNewChain40(b *testing.B) {
	c := chainCollection(40, 5)
	p := partition.NodeCapped(c, 20, nil, 1)
	parts := buildParts(c, p, false)
	pof := partOfFunc(c, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinNew(c, p.CrossLinks, pof, parts, NewJoinOptions{})
	}
}

func BenchmarkJoinOldChain40(b *testing.B) {
	c := chainCollection(40, 5)
	p := partition.NodeCapped(c, 20, nil, 1)
	parts := buildParts(c, p, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinOld(c, p.CrossLinks, parts, false)
	}
}

// joinNewScatter is the join JoinNew replaced, kept as its oracle: it
// pushes every (element, PSG node, center) triple through
// Cover.AddOut/AddIn, one sorted insert each.
func joinNewScatter(c *xmlmodel.Collection, cross []xmlmodel.Link, partOfID func(int32) int,
	parts []*PartitionData, opts NewJoinOptions) *twohop.Cover {

	global := twohop.NewCover(c.NumAllocatedIDs(), opts.WithDist)
	for _, pd := range parts {
		for local, gid := range pd.Globals {
			for _, e := range pd.Cover.Out[local] {
				global.AddOut(gid, pd.Globals[e.Center], e.Dist)
			}
			for _, e := range pd.Cover.In[local] {
				global.AddIn(gid, pd.Globals[e.Center], e.Dist)
			}
		}
	}
	if len(cross) == 0 {
		return global
	}
	s := Build(c, cross, partOfID, parts, opts.WithDist)
	hbarOut := map[int32][]twohop.Entry{}
	hIn := map[int32][]twohop.Entry{}
	if opts.FullPSGCover {
		hcov := fullPSGCover(s, opts)
		for li := int32(0); li < int32(len(s.Nodes)); li++ {
			gid := s.Nodes[li]
			for _, e := range hcov.Out[li] {
				global.AddOut(gid, s.Nodes[e.Center], e.Dist)
			}
			for _, e := range hcov.In[li] {
				global.AddIn(gid, s.Nodes[e.Center], e.Dist)
			}
			if s.IsSource[li] {
				hbarOut[li] = append([]twohop.Entry{{Center: gid}}, remap(hcov.Out[li], s.Nodes)...)
			}
			if s.IsTarget[li] {
				hIn[li] = append([]twohop.Entry{{Center: gid}}, remap(hcov.In[li], s.Nodes)...)
			}
		}
	} else {
		for li, entries := range ComputeHBar(s, opts.WithDist, 1).OutTargets {
			hbarOut[int32(li)] = remap(entries, s.Nodes)
		}
		for li := int32(0); li < int32(len(s.Nodes)); li++ {
			if s.IsTarget[li] {
				hIn[li] = []twohop.Entry{{Center: s.Nodes[li]}}
			}
		}
	}
	for li := int32(0); li < int32(len(s.Nodes)); li++ {
		gid := s.Nodes[li]
		pd := parts[partOfID(gid)]
		local := pd.Local[gid]
		if out := hbarOut[li]; len(out) > 0 {
			for a, da := range pd.G.ReverseBFSFrom(local) {
				if da == graph.InfDist {
					continue
				}
				for _, e := range out {
					global.AddOut(pd.Globals[a], e.Center, da+e.Dist)
				}
			}
		}
		if in := hIn[li]; len(in) > 0 {
			for d, dd := range pd.G.BFSFrom(local) {
				if dd == graph.InfDist {
					continue
				}
				for _, e := range in {
					global.AddIn(pd.Globals[d], e.Center, e.Dist+dd)
				}
			}
		}
	}
	return global
}

func sameLabels(t *testing.T, what string, got, want [][]twohop.Entry) {
	t.Helper()
	for v := range want {
		if !slices.Equal(got[v], want[v]) {
			t.Fatalf("%s(%d) = %v, want %v", what, v, got[v], want[v])
		}
		if len(got[v]) != cap(got[v]) {
			t.Fatalf("%s(%d): capacity %d for %d entries", what, v, cap(got[v]), len(got[v]))
		}
	}
}

// Property: the gather join writes the labels of the scatter join,
// entry for entry and distance for distance, on random partitionings
// of collections with cyclic cross links, whether one goroutine or
// several gather the partitions.
func TestJoinNewMatchesScatterJoin(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCollection(rng, 4+rng.Intn(10), 7, 6+rng.Intn(20))
		for _, l := range c.Links[:len(c.Links)/2] { // close cycles across documents
			if err := c.AddLink(l.To, l.From); err != nil {
				t.Fatal(err)
			}
		}
		var p *partition.Partitioning
		switch seed % 3 {
		case 0:
			p = partition.Single(c)
		case 1:
			p = partition.NodeCapped(c, 6+rng.Intn(20), nil, seed)
		default:
			p = partition.ClosureBudget(c, int64(20+rng.Intn(200)), nil, seed)
		}
		for _, withDist := range []bool{false, true} {
			parts := buildParts(c, p, withDist)
			for _, full := range []bool{false, true} {
				opts := NewJoinOptions{WithDist: withDist, FullPSGCover: full, Seed: seed}
				want := joinNewScatter(c, p.CrossLinks, partOfFunc(c, p), parts, opts)
				for _, workers := range []int{1, 4} {
					opts.Workers = workers
					got := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, opts)
					if got.N() != want.N() || got.WithDist != want.WithDist {
						t.Fatalf("seed %d: cover shape differs", seed)
					}
					sameLabels(t, "Lout", got.Out, want.Out)
					sameLabels(t, "Lin", got.In, want.In)
				}
			}
		}
	}
}

// TestJoinOldCoverUnchanged pins the labels of a small old-join cover,
// plain and distance-aware, over a random cyclic collection: how the
// join finds the ancestors and descendants of each link's ends may
// change, the labels it writes may not.
func TestJoinOldCoverUnchanged(t *testing.T) {
	want := map[bool]uint64{false: 0x8cb593ab24980c68, true: 0x789f789565504f3b}
	for _, withDist := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		c := randomCollection(rng, 16, 7, 30)
		p := partition.NodeCapped(c, 14, nil, 5)
		cov := JoinOld(c, p.CrossLinks, buildParts(c, p, withDist), withDist)
		joinAndVerify(t, c, cov)
		h := fnv.New64a()
		var buf [8]byte
		for v := int32(0); v < int32(cov.N()); v++ {
			for _, l := range [][]twohop.Entry{cov.Lout(v), cov.Lin(v)} {
				binary.LittleEndian.PutUint32(buf[:4], uint32(len(l)))
				h.Write(buf[:4])
				for _, e := range l {
					binary.LittleEndian.PutUint32(buf[:4], uint32(e.Center))
					binary.LittleEndian.PutUint32(buf[4:], e.Dist)
					h.Write(buf[:])
				}
			}
		}
		if got := h.Sum64(); got != want[withDist] {
			t.Errorf("dist=%v: label hash %#x, want %#x (%d entries, %d cross links)",
				withDist, got, want[withDist], cov.Size(), len(p.CrossLinks))
		}
	}
}
