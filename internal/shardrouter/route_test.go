package shardrouter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRouterRouteMatchesBruteForce: on seeded random endpoint graphs,
// route agrees with Floyd–Warshall over the raw edge list — unranked
// reach and ranked Pareto arrivals alike. The graphs carry cycles
// through sources (the proper self-distance is the cycle, never the
// empty path), parallel edges of different weight (the lightest wins),
// and endpoints that are both in- and out-endpoints.
func TestRouterRouteMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		pre := randomPrep(rng, n, k)
		edges := randomEdges(rng, pre)
		eg := newEndpointGraph(pre, edges)
		dist := floydWarshall(n, edges)
		outArr := randomArrivals(rng, pre, k)
		for _, ranked := range []bool{false, true} {
			got := eg.route(outArr, ranked)
			want := bruteRoute(pre, dist, outArr, ranked)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d ranked=%t: edges %v, arrivals %v\nroute %v\nbrute %v", seed, ranked, edges, outArr, got, want)
			}
		}
	}
}

// randomPrep lays n endpoint nodes over k shards, each an in-endpoint,
// an out-endpoint, or both.
func randomPrep(rng *rand.Rand, n, k int) *egPrep {
	pre := &egPrep{
		outNode:  map[string]int32{},
		inNodes:  make([][]int32, k),
		outNodes: make([][]int32, k),
	}
	for i := 0; i < n; i++ {
		s := rng.Intn(k)
		kind := rng.Intn(3) // 0 in, 1 out, 2 both
		doc := fmt.Sprintf("d%d.xml", i)
		pre.keys = append(pre.keys, epKey{doc: doc, local: int32(i)})
		pre.specs = append(pre.specs, fmt.Sprintf("%s:%d", doc, i))
		pre.shard = append(pre.shard, s)
		pre.isIn = append(pre.isIn, kind != 1)
		pre.isOut = append(pre.isOut, kind != 0)
		if kind != 1 {
			pre.inNodes[s] = append(pre.inNodes[s], int32(i))
		}
		if kind != 0 {
			pre.outNodes[s] = append(pre.outNodes[s], int32(i))
			pre.outNode[pre.specs[i]] = int32(i)
		}
	}
	return pre
}

// randomEdges draws weighted edges without self loops (the endpoint
// graph has none: a cross link joins two documents, a closure edge two
// distinct endpoints), re-adds some at another weight, and closes a
// cycle through an out-endpoint.
func randomEdges(rng *rand.Rand, pre *egPrep) []hEdge {
	n := len(pre.keys)
	var edges []hEdge
	for m := rng.Intn(3 * n); m > 0; m-- {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, hEdge{u, v, 1 + uint32(rng.Intn(5))})
	}
	for _, e := range edges {
		if rng.Intn(4) == 0 {
			edges = append(edges, hEdge{e.from, e.to, 1 + uint32(rng.Intn(5))})
		}
	}
	for src := range pre.keys {
		if !pre.isOut[src] || rng.Intn(2) == 0 {
			continue
		}
		prev := int32(src)
		for hops := 1 + rng.Intn(3); hops > 0; hops-- {
			next := int32(rng.Intn(n))
			if hops == 1 {
				next = int32(src)
			}
			if next != prev {
				edges = append(edges, hEdge{prev, next, 1 + uint32(rng.Intn(5))})
				prev = next
			}
		}
		break
	}
	return edges
}

// randomArrivals reaches about half the out-endpoints with one to three
// arrivals each, plus an empty and an unknown entry route must skip.
func randomArrivals(rng *rand.Rand, pre *egPrep, k int) []map[string][]Arrival {
	out := make([]map[string][]Arrival, k)
	for s := range out {
		out[s] = map[string][]Arrival{"ghost.xml:0": {{Base: 1}}}
		for _, node := range pre.outNodes[s] {
			switch rng.Intn(3) {
			case 0:
				continue
			case 1:
				out[s][pre.specs[node]] = nil
			default:
				var arr []Arrival
				for c := 1 + rng.Intn(3); c > 0; c-- {
					arr = append(arr, Arrival{Base: float64(1+rng.Intn(4)) / 4, Dist: uint32(rng.Intn(4))})
				}
				out[s][pre.specs[node]] = arr
			}
		}
	}
	return out
}

const fwInf = uint64(1) << 40

// floydWarshall returns all-pairs shortest proper-path (length ≥ 1)
// distances: the diagonal starts unreachable, so d[v][v] ends as the
// shortest cycle through v.
func floydWarshall(n int, edges []hEdge) [][]uint64 {
	d := make([][]uint64, n)
	for i := range d {
		d[i] = make([]uint64, n)
		for j := range d[i] {
			d[i][j] = fwInf
		}
	}
	for _, e := range edges {
		d[e.from][e.to] = min(d[e.from][e.to], uint64(e.w))
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d[i][j] = min(d[i][j], d[i][k]+d[k][j])
			}
		}
	}
	return d
}

// bruteRoute is route's specification: every in-endpoint receives each
// source's arrivals shifted by the source→endpoint proper distance,
// Pareto-pruned when ranked, a single empty arrival when not.
func bruteRoute(pre *egPrep, d [][]uint64, outArr []map[string][]Arrival, ranked bool) []map[string][]Arrival {
	want := make([]map[string][]Arrival, len(outArr))
	for v := range pre.keys {
		if !pre.isIn[v] {
			continue
		}
		var arr []Arrival
		for _, perShard := range outArr {
			for spec, as := range perShard {
				src, ok := pre.outNode[spec]
				if !ok || d[src][v] == fwInf {
					continue
				}
				for _, a := range as {
					arr = append(arr, Arrival{Base: a.Base, Dist: a.Dist + uint32(d[src][v])})
				}
			}
		}
		if len(arr) == 0 {
			continue
		}
		if ranked {
			arr = ParetoPrune(arr)
		} else {
			arr = []Arrival{{}}
		}
		s := pre.shard[v]
		if want[s] == nil {
			want[s] = map[string][]Arrival{}
		}
		want[s][pre.specs[v]] = arr
	}
	return want
}
