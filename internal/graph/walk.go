package graph

import (
	"iter"
	"slices"
	"sync"
)

// Walk yields, in breadth-first order, every node that a path of
// length ≥ 1 leads to from start, with the length of the shortest such
// path. start itself comes out only when it lies on a cycle, with the
// length of the shortest one. next(v, visit) calls visit for every
// edge that leaves v (or, for a walk against the edges, enters it);
// node IDs lie in [0, n). Breaking out of the loop ends the walk.
//
// The visited set and the queue are pooled, and only the nodes the
// walk reached are cleared afterwards, so a walk that stops early costs
// what it visited, not n.
func Walk(n int, start int32, next func(v int32, visit func(w int32))) iter.Seq2[int32, uint32] {
	return func(yield func(int32, uint32) bool) {
		s := walks.Get().(*walkScratch)
		s.seen = s.seen.Grow(n)
		s.queue = append(s.queue[:0], hop{start, 0})
		defer s.release()
		visit := func(w int32) {
			if !s.seen.Has(int(w)) {
				s.seen.Set(int(w))
				s.queue = append(s.queue, hop{w, s.depth + 1})
			}
		}
		for i := 0; i < len(s.queue); i++ {
			h := s.queue[i]
			if i > 0 && !yield(h.node, h.dist) {
				return
			}
			s.depth = h.dist
			next(h.node, visit)
		}
	}
}

// Reach returns every node that a path of length ≥ 1 leads to from any
// of sources; a source is in it only when such a path reaches it. next
// is as for Walk.
func Reach(n int, sources []int32, next func(v int32, visit func(w int32))) Bitset {
	seen := NewBitset(n)
	stack := slices.Clone(sources)
	visit := func(w int32) {
		if !seen.Has(int(w)) {
			seen.Set(int(w))
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next(v, visit)
	}
	return seen
}

// Walk is graph.Walk over g's edges, forward or backward.
func (g *Digraph) Walk(start int32, backward bool) iter.Seq2[int32, uint32] {
	return Walk(g.N(), start, g.next(backward))
}

// next is the neighbour function of g's edges, forward or backward,
// for Walk and Reach.
func (g *Digraph) next(backward bool) func(v int32, visit func(int32)) {
	adj := g.succ
	if backward {
		adj = g.pred
	}
	return func(v int32, visit func(int32)) {
		for _, w := range adj[v] {
			visit(w)
		}
	}
}

// hop is one reached node and its distance from the walk's start.
type hop struct {
	node int32
	dist uint32
}

// walkScratch is one walk's visited set and queue; depth is the
// distance of the node being expanded.
type walkScratch struct {
	seen  Bitset
	queue []hop
	depth uint32
}

var walks = sync.Pool{New: func() any { return new(walkScratch) }}

// release clears the nodes the walk marked and pools the scratch.
func (s *walkScratch) release() {
	for _, h := range s.queue[1:] {
		s.seen.Clear(int(h.node))
	}
	walks.Put(s)
}
