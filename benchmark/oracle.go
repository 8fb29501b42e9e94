package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"hopi"
	"hopi/internal/graph"
	"hopi/internal/query"
	"hopi/internal/xmlmodel"
)

// prober is the part of an index or snapshot the pair oracle compares
// against breadth-first search.
type prober interface {
	Reaches(u, v hopi.ElemID) bool
	Distance(u, v hopi.ElemID) (uint32, error)
}

// checkPairs compares sampled reachability (and distance, on a
// distance-aware index) answers against BFS over the collection's
// element graph: sources BFS runs, perSource targets each, half of
// them drawn from the reachable set so positives are exercised.
func (r *run) checkPairs(what string, c *xmlmodel.Collection, ix prober, withDist bool, rng *rand.Rand, sources, perSource int) {
	g := c.ElementGraph()
	var live []int32
	for _, d := range c.LiveDocIndexes() {
		live = append(live, c.DocIDs(d)...)
	}
	if len(live) == 0 {
		r.check(false, "%s: empty collection", what)
		return
	}
	for s := 0; s < sources; s++ {
		u := live[rng.Intn(len(live))]
		dist := g.BFSFrom(u)
		var reachable []int32
		for _, v := range live {
			if dist[v] != graph.InfDist {
				reachable = append(reachable, v)
			}
		}
		for k := 0; k < perSource; k++ {
			v := live[rng.Intn(len(live))]
			if k%2 == 0 {
				v = reachable[rng.Intn(len(reachable))]
			}
			want := dist[v] != graph.InfDist
			r.check(ix.Reaches(u, v) == want, "%s: Reaches(%d,%d) != %v", what, u, v, want)
			if withDist {
				got, err := ix.Distance(u, v)
				r.check(err == nil && got == dist[v], "%s: Distance(%d,%d) = %d (%v), BFS says %d", what, u, v, got, err, dist[v])
			}
		}
	}
}

// pathOracle evaluates descendant-axis path expressions by breadth-first
// search over the element graph, never touching the cover: the answer
// the index must reproduce, scores included.
type pathOracle struct {
	g     *graph.Digraph
	byTag map[string][]int32
	all   []int32
}

func newPathOracle(c *xmlmodel.Collection) *pathOracle {
	o := &pathOracle{g: c.ElementGraph(), byTag: c.ElementsByTag()}
	for _, d := range c.LiveDocIndexes() {
		o.all = append(o.all, c.DocIDs(d)...)
	}
	return o
}

func (o *pathOracle) candidates(tag string) []int32 {
	if tag == "*" {
		return o.all
	}
	return o.byTag[tag]
}

// eval returns every element matching the expression with its best
// connection score: 1 for a first-step match, and per further step
// max over frontier elements f of score(f)/(1+dist(f,v)) along proper
// paths. Frontier elements are grouped by score so that each distinct
// score costs one multi-source BFS.
func (o *pathOracle) eval(expr string) (map[int32]float64, error) {
	q, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	frontier := map[int32]float64{}
	for i, st := range q.Steps {
		if st.Axis != query.AxisDescendant {
			return nil, fmt.Errorf("oracle: only // steps are supported: %s", expr)
		}
		if i == 0 {
			for _, v := range o.candidates(st.Tag) {
				frontier[v] = 1
			}
			continue
		}
		byScore := map[float64][]int32{}
		for v, s := range frontier {
			byScore[s] = append(byScore[s], v)
		}
		next := map[int32]float64{}
		cands := o.candidates(st.Tag)
		for s, srcs := range byScore {
			dist := o.multiSourceBFS(srcs)
			for _, v := range cands {
				// proper paths only: one edge from the nearest reached predecessor
				best := graph.InfDist
				for _, p := range o.g.Pred(v) {
					if dist[p] != graph.InfDist && dist[p]+1 < best {
						best = dist[p] + 1
					}
				}
				if best == graph.InfDist {
					continue
				}
				if sc := s / float64(1+best); sc > next[v] {
					next[v] = sc
				}
			}
		}
		frontier = next
	}
	return frontier, nil
}

func (o *pathOracle) multiSourceBFS(srcs []int32) []uint32 {
	dist := make([]uint32, o.g.N())
	for i := range dist {
		dist[i] = graph.InfDist
	}
	queue := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range o.g.Succ(u) {
			if dist[v] == graph.InfDist {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// match is one expected or observed query result.
type match struct {
	elem  int32
	score float64
}

// ordered lists the oracle's matches in the order cursors emit them:
// ascending element unranked, (score desc, element asc) ranked.
func ordered(m map[int32]float64, ranked bool) []match {
	out := make([]match, 0, len(m))
	for v, s := range m {
		if !ranked {
			s = 0
		}
		out = append(out, match{v, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].elem < out[j].elem
	})
	return out
}

// digest folds a result list into a count and an order-sensitive hash.
type digest struct {
	n int
	h uint64
}

func digestOf(ms []match) digest {
	h := fnv.New64a()
	var buf [12]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint32(buf[:4], uint32(m.elem))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(m.score))
		h.Write(buf[:])
	}
	return digest{len(ms), h.Sum64()}
}

func toMatches(rs []hopi.QueryResult) []match {
	out := make([]match, len(rs))
	for i, q := range rs {
		out[i] = match{q.Element, q.Score}
	}
	return out
}
