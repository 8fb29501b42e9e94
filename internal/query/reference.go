package query

import (
	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// Reference answers q by brute force over c's element graph, without a
// cover: the ground truth every evaluator is tested against. It maps
// each matching element to its score — 0 when ranked is false, else the
// ranked score: per step, the best frontier score divided by 1 + the
// shortest proper-path distance (the shortest cycle for a self-match),
// the first step's matches scoring 1. A // step follows proper paths
// only, so an element is its own descendant only through a cycle; a /
// step follows one tree edge. Each frontier element costs one BFS, so
// this is for test-sized collections.
func Reference(c *xmlmodel.Collection, q *Query, ranked bool) map[int32]float64 {
	g := c.ElementGraph()
	matches := func(tag string, id int32) bool { return tag == "*" || c.Tag(id) == tag }
	frontier := map[int32]float64{}
	first := q.Steps[0]
	for _, doc := range c.LiveDocIndexes() {
		for local := range c.Docs[doc].Elements {
			id := c.GlobalID(doc, int32(local))
			if matches(first.Tag, id) && (first.Axis == AxisDescendant || local == 0) {
				frontier[id] = 1
			}
		}
	}
	offer := func(next map[int32]float64, id int32, score float64) {
		if s, ok := next[id]; !ok || score > s {
			next[id] = score
		}
	}
	for _, step := range q.Steps[1:] {
		next := map[int32]float64{}
		for f, score := range frontier {
			if step.Axis == AxisChild {
				doc, local := c.LocalID(f)
				d := c.Docs[doc]
				for e := local + 1; e < int32(d.Len()); e++ {
					if d.Elements[e].Parent == local && matches(step.Tag, c.GlobalID(doc, e)) {
						offer(next, c.GlobalID(doc, e), score/2)
					}
				}
				continue
			}
			dist := g.BFSFrom(f)
			for v, d := range dist {
				if d != graph.InfDist && d > 0 && matches(step.Tag, int32(v)) {
					offer(next, int32(v), score/float64(1+d))
				}
			}
			if !matches(step.Tag, f) {
				continue
			}
			cycle := graph.InfDist // shortest path f → f of length ≥ 1
			for _, p := range g.Pred(f) {
				if dist[p] != graph.InfDist && dist[p]+1 < cycle {
					cycle = dist[p] + 1
				}
			}
			if cycle != graph.InfDist {
				offer(next, f, score/float64(1+cycle))
			}
		}
		frontier = next
	}
	if !ranked {
		for id := range frontier {
			frontier[id] = 0
		}
	}
	return frontier
}
