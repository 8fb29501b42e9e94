package xmlmodel

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"hopi/internal/graph"
)

// walkFrom collects what c.Walk yields from u, checking that it comes
// out in breadth-first order and yields no element twice.
func walkFrom(t *testing.T, c *Collection, u int32, backward bool) map[int32]uint32 {
	t.Helper()
	got := map[int32]uint32{}
	last := uint32(0)
	for v, d := range c.Walk(u, backward) {
		if _, dup := got[v]; dup {
			t.Fatalf("Walk(%d, %v) yields %d twice", u, backward, v)
		}
		if d < last || d == 0 {
			t.Fatalf("Walk(%d, %v) yields %d at %d after %d", u, backward, v, d, last)
		}
		got[v], last = d, d
	}
	return got
}

// graphWalk is what Walk must yield, from a BFS over the element
// graph: every element a path of length ≥ 1 leads to, at its shortest
// length, u itself at the length of its shortest cycle.
func graphWalk(g *graph.Digraph, u int32, backward bool) map[int32]uint32 {
	dist, into := g.BFSFrom(u), g.Pred
	if backward {
		dist, into = g.ReverseBFSFrom(u), g.Succ
	}
	want := map[int32]uint32{}
	for v, d := range dist {
		if d != graph.InfDist && int32(v) != u {
			want[int32(v)] = d
		}
	}
	for _, p := range into(u) { // the last edge of a cycle back to u
		if d := dist[p]; d != graph.InfDist && (want[u] == 0 || d+1 < want[u]) {
			want[u] = d + 1
		}
	}
	return want
}

// walks records every element's forward and backward walk.
func walks(t *testing.T, c *Collection) [2][]map[int32]uint32 {
	t.Helper()
	var w [2][]map[int32]uint32
	for u := int32(0); u < int32(c.NumAllocatedIDs()); u++ {
		w[0] = append(w[0], walkFrom(t, c, u, false))
		w[1] = append(w[1], walkFrom(t, c, u, true))
	}
	return w
}

// checkWalks holds every element's walks, both ways, to a BFS over
// ElementGraph(): the nodes and their hop counts.
func checkWalks(t *testing.T, c *Collection, context string) [2][]map[int32]uint32 {
	t.Helper()
	g := c.ElementGraph()
	w := walks(t, c)
	for u := int32(0); u < int32(g.N()); u++ {
		for b, backward := range []bool{false, true} {
			if want := graphWalk(g, u, backward); !maps.Equal(w[b][u], want) {
				t.Fatalf("%s: Walk(%d, backward=%v) = %v, want %v", context, u, backward, w[b][u], want)
			}
		}
		// a walk cut short leaves no marks behind for the next one
		for range c.Walk(u, false) {
			break
		}
	}
	checkReach(t, c, g, context)
	checkLinksIntoPath(t, c, context)
	return w
}

// checkLinksIntoPath holds every element's LinksIntoPath to the link
// tables: each link of a live document whose target is the element or
// one of its tree ancestors, with the tree edges from that target down
// to the element, nearest target first.
func checkLinksIntoPath(t *testing.T, c *Collection, context string) {
	t.Helper()
	for u := int32(0); u < int32(c.NumAllocatedIDs()); u++ {
		var got, want [][2]int32
		for s, down := range c.LinksIntoPath(u) {
			if n := len(got); n > 0 && uint32(got[n-1][1]) > down {
				t.Fatalf("%s: LinksIntoPath(%d) yields %d after %d", context, u, down, got[n-1][1])
			}
			got = append(got, [2]int32{s, int32(down)})
		}
		doc, local := c.LocalID(u)
		into := func(from, to int32) {
			down := int32(0)
			for a := local; a >= 0; a = c.Docs[doc].Elements[a].Parent {
				if from != to && c.GlobalID(doc, a) == to {
					want = append(want, [2]int32{from, down})
				}
				down++
			}
		}
		if c.Alive(doc) {
			for _, l := range c.Links {
				into(l.From, l.To)
			}
			for _, l := range c.Docs[doc].IntraLinks {
				into(c.GlobalID(doc, l[0]), c.GlobalID(doc, l[1]))
			}
		}
		if !slices.Equal(sortedPairs(got), sortedPairs(want)) {
			t.Fatalf("%s: LinksIntoPath(%d) = %v, want %v", context, u, got, want)
		}
	}
}

func sortedPairs(ps [][2]int32) [][2]int32 {
	return slices.SortedFunc(slices.Values(ps), func(a, b [2]int32) int {
		if a[1] != b[1] {
			return int(a[1] - b[1])
		}
		return int(a[0] - b[0])
	})
}

// bfs returns the nodes of g that a path of length ≥ 1 leads to from
// any of sources, or, backward, leads from to any of them.
func bfs(g *graph.Digraph, sources []int32, backward bool) []int32 {
	next := g.Succ
	if backward {
		next = g.Pred
	}
	seen := map[int32]bool{}
	queue := slices.Clone(sources)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range next(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// edgeSet lists g's edges.
func edgeSet(g *graph.Digraph) map[[2]int32]bool {
	s := map[[2]int32]bool{}
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Succ(u) {
			s[[2]int32{u, v}] = true
		}
	}
	return s
}

// checkReach holds Reach, DocReach and Subgraph to the same questions
// asked of ElementGraph() (g) and DocGraph(): Reach from every live
// document's elements and from every third element, both ways;
// DocReach from every live document and from all of them, both ways,
// with no document skipped and with one whose edges are removed from
// DocGraph(); Subgraph over every element and over every other one.
func checkReach(t *testing.T, c *Collection, g *graph.Digraph, context string) {
	t.Helper()
	var every3rd, everyID, everyOther []int32
	for u := int32(0); u < int32(g.N()); u++ {
		if u%3 == 0 {
			every3rd = append(every3rd, u)
		}
		everyID = append(everyID, u)
	}
	live := c.LiveDocIndexes()
	idSets := [][]int32{every3rd}
	for _, d := range live {
		idSets = append(idSets, c.DocIDs(d))
	}
	for _, ids := range idSets {
		for _, backward := range []bool{false, true} {
			if got, want := c.Reach(ids, backward).Elements(nil), bfs(g, ids, backward); !slices.Equal(got, want) {
				t.Fatalf("%s: Reach(%v, backward=%v) = %v, want %v", context, ids, backward, got, want)
			}
		}
	}

	dg, _ := c.DocGraph()
	all := make([]int32, len(live))
	for i, d := range live {
		all[i] = int32(d)
	}
	for i, skip := range append([]int{-1}, live...) {
		without := graph.NewDigraph(dg.N()) // DocGraph() without skip's edges
		for u := int32(0); u < int32(dg.N()); u++ {
			for _, v := range dg.Succ(u) {
				if int(u) != skip && int(v) != skip {
					without.AddEdge(u, v)
				}
			}
		}
		sources := [][]int32{slices.DeleteFunc(slices.Clone(all), func(d int32) bool { return int(d) == skip })}
		if i == 0 {
			for _, d := range all {
				sources = append(sources, []int32{d})
			}
		}
		for _, docs := range sources {
			for _, backward := range []bool{false, true} {
				if got, want := c.DocReach(docs, backward, skip).Elements(nil), bfs(without, docs, backward); !slices.Equal(got, want) {
					t.Fatalf("%s: DocReach(%v, backward=%v, skip %d) = %v, want %v", context, docs, backward, skip, got, want)
				}
			}
		}
	}

	for u := int32(g.N()) - 1; u >= 0; u -= 2 { // descending: any order goes
		everyOther = append(everyOther, u)
	}
	for _, nodes := range [][]int32{everyID, everyOther} {
		// g's edges between nodes, node i renumbered i
		local := make(map[int32]int32, len(nodes))
		for i, u := range nodes {
			local[u] = int32(i)
		}
		want := map[[2]int32]bool{}
		for i, u := range nodes {
			for _, v := range g.Succ(u) {
				if j, ok := local[v]; ok {
					want[[2]int32{int32(i), j}] = true
				}
			}
		}
		if got := c.Subgraph(nodes); got.N() != len(nodes) || !maps.Equal(edgeSet(got), want) {
			t.Fatalf("%s: Subgraph(%v) edges %v, want %v", context, nodes, edgeSet(got), want)
		}
	}
}

// TestWalkMatchesElementGraph drives a collection through random link
// inserts (intra- and inter-document, repeated ones, self links, links
// that close cycles), link removals, document inserts and removals, and
// clones, and checks after every step that Walk, forward and backward,
// yields exactly what a BFS over ElementGraph() reaches, at the same
// hop counts. Every clone must keep yielding what it yielded when it
// was taken, whatever the original wrote since, and the original what
// it yields, whatever a clone writes.
func TestWalkMatchesElementGraph(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollection()
		addDoc := func(name string) {
			d := NewDocument(name, "r")
			for j := 1; j < 2+rng.Intn(5); j++ {
				d.AddElement(int32(rng.Intn(j)), "e")
			}
			if rng.Intn(2) == 0 {
				d.AddIntraLink(int32(rng.Intn(d.Len())), int32(rng.Intn(d.Len()))) // self links too
			}
			c.AddDocument(d)
		}
		for i := 0; i < 6; i++ {
			addDoc(fmt.Sprintf("d%d", i))
		}
		elem := func() int32 {
			live := c.LiveDocIndexes()
			d := live[rng.Intn(len(live))]
			return c.GlobalID(d, int32(rng.Intn(c.Docs[d].Len())))
		}
		type held struct {
			c     *Collection
			walks [2][]map[int32]uint32
		}
		var clones []held
		for step := 0; step < 60; step++ {
			context := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				from, to := elem(), elem()
				if err := c.AddLink(from, to); err != nil {
					t.Fatalf("%s: %v", context, err)
				}
				if rng.Intn(4) == 0 {
					if err := c.AddLink(from, to); err != nil { // the same link twice
						t.Fatalf("%s: %v", context, err)
					}
				}
			case op < 6:
				if len(c.Links) > 0 {
					l := c.Links[rng.Intn(len(c.Links))]
					c.RemoveLink(l.From, l.To)
				}
				for _, di := range c.LiveDocIndexes() {
					if d := c.Docs[di]; len(d.IntraLinks) > 0 && rng.Intn(3) == 0 {
						l := d.IntraLinks[0]
						c.RemoveLink(c.GlobalID(di, l[0]), c.GlobalID(di, l[1]))
					}
				}
			case op < 7:
				addDoc(fmt.Sprintf("n%d", step))
			case op < 8:
				if live := c.LiveDocIndexes(); len(live) > 3 {
					c.RemoveDocument(live[rng.Intn(len(live))])
				}
			case op < 9:
				cl := c.Clone()
				clones = append(clones, held{cl, walks(t, cl)})
			default:
				// write through a clone: the original must not see it
				if len(clones) > 0 {
					h := &clones[len(clones)-1]
					if live := h.c.LiveDocIndexes(); len(live) > 3 {
						h.c.RemoveDocument(live[0])
						h.walks = checkWalks(t, h.c, context+" (clone)")
					}
				}
			}
			checkWalks(t, c, context)
		}
		for i, h := range clones {
			if got := walks(t, h.c); !walksEqual(got, h.walks) {
				t.Fatalf("seed %d: clone %d walks changed after the original was written", seed, i)
			}
			checkWalks(t, h.c, fmt.Sprintf("seed %d clone %d", seed, i))
		}
	}
}

func walksEqual(a, b [2][]map[int32]uint32) bool {
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return false
		}
		for u := range a[s] {
			if !maps.Equal(a[s][u], b[s][u]) {
				return false
			}
		}
	}
	return true
}

// TestWalkAfterDecode: a collection read back from its encoding walks
// its links, inter-document ones included, as the original does.
func TestWalkAfterDecode(t *testing.T) {
	c := figureCollection(t)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !walksEqual(walks(t, back), checkWalks(t, c, "original")) {
		t.Fatal("decoded collection walks differently")
	}
}
