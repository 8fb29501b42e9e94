package psg

import (
	"testing"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// TestPSGEdgeDistKeepsMinimum: when a target reaches a source over
// several internal routes, the PSG edge weight must be the shortest
// internal distance.
func TestPSGEdgeDistKeepsMinimum(t *testing.T) {
	c := xmlmodel.NewCollection()
	// doc 0: root(0) → a(1); plus shortcut link root→b and chain via a
	d0 := xmlmodel.NewDocument("", "r")
	a := d0.AddElement(0, "a") // 1
	b := d0.AddElement(a, "b") // 2: depth 2 via tree
	d0.AddIntraLink(0, b)      // direct shortcut root→b: depth 1
	_ = b
	c.AddDocument(d0)
	d1 := xmlmodel.NewDocument("", "r")
	c.AddDocument(d1)
	d2 := xmlmodel.NewDocument("", "r")
	c.AddDocument(d2)
	// incoming link lands on doc0 root (target), outgoing leaves from b
	if err := c.AddLink(c.GlobalID(1, 0), c.GlobalID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(0, 2), c.GlobalID(2, 0)); err != nil {
		t.Fatal(err)
	}
	p := partition.Single(c)
	parts := buildParts(c, p, true)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, true)
	tgt := s.Index[c.GlobalID(0, 0)]
	src := s.Index[c.GlobalID(0, 2)]
	if got := s.EdgeDist[[2]int32{tgt, src}]; got != 1 {
		t.Errorf("PSG edge dist = %d, want 1 (shortcut, not the depth-2 tree path)", got)
	}
	// end-to-end distances through the PSG stay exact
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{WithDist: true})
	dc := graph.NewDistClosure(c.ElementGraph())
	if err := twohop.VerifyDistance(cov, dc); err != nil {
		t.Fatal(err)
	}
}

// TestHBarOnCyclicPSG: document-level link cycles make the PSG cyclic;
// H̄ must still enumerate all reachable targets.
func TestHBarOnCyclicPSG(t *testing.T) {
	c := xmlmodel.NewCollection()
	for i := 0; i < 3; i++ {
		d := xmlmodel.NewDocument("", "r")
		d.AddElement(0, "x")
		c.AddDocument(d)
	}
	// ring of root→root links: 0→1→2→0
	for i := 0; i < 3; i++ {
		if err := c.AddLink(c.GlobalID(i, 0), c.GlobalID((i+1)%3, 0)); err != nil {
			t.Fatal(err)
		}
	}
	p := partition.Single(c)
	parts := buildParts(c, p, false)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, false)
	hb := ComputeHBar(s, false, 2)
	// every root is both source and target; from each source all three
	// roots are reachable targets (the other two plus itself via the
	// ring — self entries stay implicit, so expect 2 explicit entries).
	for i := 0; i < 3; i++ {
		li := s.Index[c.GlobalID(i, 0)]
		if got := len(hb.OutTargets[li]); got != 2 {
			t.Errorf("source %d reaches %d explicit targets, want 2", i, got)
		}
	}
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{})
	joinAndVerify(t, c, cov)
}

// TestJoinPreservesPartitionDistances: distance-aware join where the
// globally shortest path between two same-partition elements leaves the
// partition (the subtle case the PSG edge weights exist for).
func TestJoinShortestPathLeavesPartition(t *testing.T) {
	c := xmlmodel.NewCollection()
	// doc0: root → a → b → c → d (chain of 5); internal dist root→d = 4
	d0 := xmlmodel.NewDocument("", "r")
	prev := int32(0)
	for i := 0; i < 4; i++ {
		prev = d0.AddElement(prev, "n")
	}
	c.AddDocument(d0)
	// doc1: single hop detour: doc0 root → doc1 root → doc0 d
	d1 := xmlmodel.NewDocument("", "r")
	c.AddDocument(d1)
	if err := c.AddLink(c.GlobalID(0, 0), c.GlobalID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(1, 0), c.GlobalID(0, prev)); err != nil {
		t.Fatal(err)
	}
	p := partition.Single(c)
	parts := buildParts(c, p, true)
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{WithDist: true})
	dc := graph.NewDistClosure(c.ElementGraph())
	if err := twohop.VerifyDistance(cov, dc); err != nil {
		t.Fatal(err)
	}
	// the detour (2 hops) beats the internal chain (4 hops)
	if d := cov.Distance(c.GlobalID(0, 0), c.GlobalID(0, prev)); d != 2 {
		t.Errorf("distance = %d, want 2 via the external detour", d)
	}
}
