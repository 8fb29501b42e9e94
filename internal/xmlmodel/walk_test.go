package xmlmodel

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
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
	return w
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
