package twohop

import (
	"math/rand"
	"testing"

	"hopi/internal/graph"
)

// TestBuildStatsFields checks that the construction statistics move.
func TestBuildStatsFields(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDigraph(rng, 60, 150)
	cl := graph.NewClosure(g)
	_, stats := Build(cl, Options{})
	if stats.Centers == 0 || stats.Pops == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Pops < stats.Centers {
		t.Errorf("pops (%d) < centers (%d)", stats.Pops, stats.Centers)
	}
}

// TestSampledDensityPath forces the distance-aware density estimator
// through its sampling branch: a hub with >13,600 candidate edges.
func TestSampledDensityPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large star")
	}
	// star: 130 sources → hub → 130 sinks  ⇒ a·d = 130·130 = 16,900
	// candidate pairs for the hub, beyond SampleBudget.
	const k = 130
	g := graph.NewDigraph(2*k + 1)
	hub := int32(2 * k)
	for i := int32(0); i < k; i++ {
		g.AddEdge(i, hub)
		g.AddEdge(hub, k+i)
	}
	dc := graph.NewDistClosure(g)
	cover, _ := BuildDistanceAware(dc, Options{Seed: 3})
	if err := VerifyDistance(cover, dc); err != nil {
		t.Fatal(err)
	}
	// the hub is the perfect center; the cover should stay near one
	// entry per node
	if cover.Size() > 3*(2*k+1) {
		t.Errorf("cover size %d for a %d-node star", cover.Size(), 2*k+1)
	}
}

// TestPreselectAllNodes preselects every node — the greedy loop should
// have nothing left to do and the cover must still be correct.
func TestPreselectAllNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDigraph(rng, 25, 60)
	cl := graph.NewClosure(g)
	pre := make([]int32, 25)
	for i := range pre {
		pre[i] = int32(i)
	}
	cover, _ := Build(cl, Options{Preselect: pre})
	cl2 := graph.NewClosure(g)
	if err := Verify(cover, cl2); err != nil {
		t.Fatal(err)
	}
}

// TestCoverGrow verifies that grown covers keep old labels and accept
// new ones.
func TestCoverGrow(t *testing.T) {
	c := NewCover(2, false)
	c.AddOut(0, 1, 0)
	c.Grow(5)
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if !c.Reaches(0, 1) {
		t.Error("old labels lost")
	}
	c.AddOut(3, 4, 0)
	if !c.Reaches(3, 4) {
		t.Error("new node labels broken")
	}
	c.Grow(3) // shrink request is a no-op
	if c.N() != 5 {
		t.Error("Grow shrank the cover")
	}
}

// TestDenseCliqueCover exercises the builder on a graph whose closure
// is complete (one big cycle through all nodes).
func TestDenseCliqueCover(t *testing.T) {
	const n = 30
	g := graph.NewDigraph(n)
	for i := int32(0); i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	cl := graph.NewClosure(g)
	cover, _ := Build(cl, Options{})
	if err := Verify(cover, graph.NewClosure(g)); err != nil {
		t.Fatal(err)
	}
	// a strongly connected component compresses extremely well: the
	// greedy should find a hub-like labeling far below n² entries
	if cover.Size() > 6*n {
		t.Errorf("cycle cover size = %d, want ≈2 entries per node", cover.Size())
	}
}

// TestDistanceCycle checks exact distances on a directed cycle, where
// every pair is connected and distances span 1..n-1.
func TestDistanceCycle(t *testing.T) {
	const n = 12
	g := graph.NewDigraph(n)
	for i := int32(0); i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	dc := graph.NewDistClosure(g)
	cover, _ := BuildDistanceAware(dc, Options{})
	if err := VerifyDistance(cover, dc); err != nil {
		t.Fatal(err)
	}
	if d := cover.Distance(0, n-1); d != n-1 {
		t.Errorf("Distance(0,%d) = %d, want %d", n-1, d, n-1)
	}
	if d := cover.Distance(3, 2); d != n-1 {
		t.Errorf("wrap-around distance = %d, want %d", d, n-1)
	}
}

// TestBuildDisconnectedComponents: labels never leak across components.
func TestBuildDisconnectedComponents(t *testing.T) {
	g := graph.NewDigraph(10)
	for i := int32(0); i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	for i := int32(6); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	cl := graph.NewClosure(g)
	cover, _ := Build(cl, Options{})
	if err := Verify(cover, graph.NewClosure(g)); err != nil {
		t.Fatal(err)
	}
	if cover.Reaches(0, 7) || cover.Reaches(6, 4) {
		t.Error("labels leaked across components")
	}
}
