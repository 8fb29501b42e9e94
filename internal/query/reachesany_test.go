package query

import (
	"context"
	"math/rand"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// TestReachesAnyMatchesBulkClosure: the unranked out-probe's set
// kernel, tree test first, answers exactly the OR over rows of the
// pairwise closure matrix — reflexively, on citation, cyclic and tree
// collections (treeIndex: tombstoned and modified documents), for an
// empty frontier, overlapping from/to sets, endpoints below frontier
// elements in the tree and elements on cycles.
func TestReachesAnyMatchesBulkClosure(t *testing.T) {
	ctx := context.Background()
	type fixture struct {
		name string
		ix   *core.Index
	}
	build := func(c *xmlmodel.Collection, opts core.Options) *core.Index {
		ix, err := core.Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	fixtures := []fixture{{
		name: "dblp",
		ix: build(gen.DBLP(gen.DefaultDBLP(60, 5)),
			core.Options{Partitioner: core.PartClosureBudget, ClosureBudget: 20_000, Join: core.JoinNewHBar, Seed: 5}),
	}}
	for seed := int64(0); seed < 4; seed++ {
		fixtures = append(fixtures,
			fixture{"cyclic", build(cyclicCollection(seed), core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: seed})},
			fixture{"tree", treeIndex(t, seed)})
	}
	for fi, fx := range fixtures {
		ix, c := fx.ix, fx.ix.Collection()
		e := NewEngine(c, ix)
		check := func(what string, from, to []int32) {
			t.Helper()
			got, err := e.ReachesAny(ctx, from, to)
			if err != nil {
				t.Fatal(err)
			}
			bulk, err := e.BulkClosure(ctx, from, to, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(to) {
				t.Fatalf("%s %d %s: %d answers for %d endpoints", fx.name, fi, what, len(got), len(to))
			}
			for j := range to {
				want := false
				for i := range from {
					want = want || bulk[i*len(to)+j] != graph.InfDist
				}
				if got[j] != want {
					t.Fatalf("%s %d %s: ReachesAny(%v)[%d → %d] = %t, BulkClosure says %t", fx.name, fi, what, from, j, to[j], got[j], want)
				}
			}
		}

		n := int32(c.NumAllocatedIDs())
		rng := rand.New(rand.NewSource(int64(fi)))
		draw := func(k int) []int32 {
			out := make([]int32, k)
			for i := range out {
				out[i] = rng.Int31n(n)
			}
			return out
		}
		check("empty from", nil, draw(10))
		check("empty to", draw(3), nil)
		for trial := 0; trial < 40; trial++ {
			from, to := draw(1+rng.Intn(8)), draw(1+rng.Intn(16))
			to = append(to, from[rng.Intn(len(from))]) // from ∩ to ≠ ∅
			check("random", from, to)
			// endpoints below a frontier element in its document's tree
			f := from[0]
			doc, local := c.LocalID(f)
			for _, kid := range c.Docs[doc].Children[local] {
				to = append(to, c.GlobalID(doc, kid))
			}
			check("tree children", from, to)
		}
		var onCycle []int32
		for u := range n {
			if ix.OnCycle(u) {
				onCycle = append(onCycle, u)
			}
		}
		if fx.name == "cyclic" && len(onCycle) == 0 {
			t.Fatalf("cyclic fixture %d has no element on a cycle", fi)
		}
		check("on cycles", onCycle, onCycle)
		check("cycles to all", onCycle, draw(int(n)))
	}
}

// TestReachesAnyAllocs: one scratch bitset and the answer slice,
// whatever the frontier and endpoint counts — never a |from|×|to|
// matrix. The count is checked only without -race.
func TestReachesAnyAllocs(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(60, 5))
	ix, err := core.Build(c, core.Options{Partitioner: core.PartClosureBudget, ClosureBudget: 20_000, Join: core.JoinNewHBar, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	ctx := context.Background()
	all := make([]int32, c.NumAllocatedIDs())
	for i := range all {
		all[i] = int32(i)
	}
	measure := func(from, to []int32) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := e.ReachesAny(ctx, from, to); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(all[:1], all[:1]), measure(all, all)
	if raceEnabled {
		t.Skipf("allocation count not checked under -race (%.0f and %.0f objects): its sync.Pool drops Puts at random", small, large)
	}
	if small > 2 || large > small {
		t.Fatalf("ReachesAny allocates %.0f objects at 1×1 and %.0f at %d×%d, want at most 2 either way", small, large, len(all), len(all))
	}
}
