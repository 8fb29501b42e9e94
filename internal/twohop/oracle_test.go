package twohop

// The greedy cover kernel as it stood before the arena rewrite, kept
// verbatim (identifiers prefixed, nothing else changed) as the oracle
// the differential tests in kernel_test.go compare build.go against:
// same vertex numbering, same bucket order, same density floats, same
// RNG call sequence — so the same cover, label for label. Its distances
// come from the dense n² matrix it was written against, which lives on
// here only as the oracle's input.

import (
	"container/heap"
	"math"
	"math/bits"
	"math/rand"

	"hopi/internal/graph"
)

// oracleMatrix holds all-pairs shortest-path lengths: Dist[u][v] is the
// length of the shortest path u → v, 0 on the diagonal, InfDist when
// unreachable.
type oracleMatrix struct {
	Dist [][]uint32
}

// newOracleMatrix runs one BFS per node.
func newOracleMatrix(g *graph.Digraph) *oracleMatrix {
	d := make([][]uint32, g.N())
	for u := range d {
		d[u] = g.BFSFrom(int32(u))
	}
	return &oracleMatrix{Dist: d}
}

// D returns the distance u → v (0 if u==v, InfDist if unreachable).
func (m *oracleMatrix) D(u, v int32) uint32 { return m.Dist[u][v] }

func oracleBuild(cl *graph.Closure, opts Options) (*Cover, Stats) {
	b := newOracleBuilder(cl, nil, opts)
	return b.run()
}

func oracleBuildDistanceAware(dm *oracleMatrix, opts Options) (*Cover, Stats) {
	cl := oracleClosureFromMatrix(dm)
	b := newOracleBuilder(cl, dm, opts)
	return b.run()
}

func oracleClosureFromMatrix(dm *oracleMatrix) *graph.Closure {
	n := len(dm.Dist)
	reach := make([]graph.Bitset, n)
	for u := 0; u < n; u++ {
		reach[u] = graph.NewBitset(n)
		for v, d := range dm.Dist[u] {
			if d != graph.InfDist && v != u {
				reach[u].Set(v)
			}
		}
	}
	return &graph.Closure{Reach: reach}
}

type oracleBuilder struct {
	n     int
	cl    *graph.Closure
	dm    *oracleMatrix  // nil for plain covers
	anc   []graph.Bitset // transpose of cl.Reach
	unc   []graph.Bitset // not-yet-covered connections, per source
	uncN  int64
	cover *Cover
	rng   *rand.Rand
	stats Stats

	// scratch buffers reused across densest-subgraph computations
	outSet graph.Bitset
}

func newOracleBuilder(cl *graph.Closure, dm *oracleMatrix, opts Options) *oracleBuilder {
	n := len(cl.Reach)
	b := &oracleBuilder{
		n:     n,
		cl:    cl,
		dm:    dm,
		cover: NewCover(n, dm != nil),
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
	b.anc = make([]graph.Bitset, n)
	for i := range b.anc {
		b.anc[i] = graph.NewBitset(n)
	}
	b.unc = make([]graph.Bitset, n)
	for u := 0; u < n; u++ {
		b.unc[u] = cl.Reach[u].Clone()
		b.uncN += int64(cl.Reach[u].Count())
		cl.Reach[u].ForEach(func(v int) bool {
			b.anc[v].Set(u)
			return true
		})
	}
	b.outSet = graph.NewBitset(n)
	b.preselect(opts.Preselect)
	return b
}

// preselect applies the §4.2 optimization: use the given nodes (link
// targets) as centers for *all* connections they can cover, before the
// density-driven main loop starts.
func (b *oracleBuilder) preselect(centers []int32) {
	for _, w := range centers {
		if b.uncN == 0 {
			return
		}
		cin, cout, _ := b.fullCenterSets(w)
		if len(cin) == 0 || len(cout) == 0 {
			continue
		}
		b.apply(w, cin, cout)
	}
}

// fullCenterSets returns all of Cin(w) and Cout(w) (self included) that
// still have uncovered connections through w, plus the number of
// uncovered center-graph edges.
func (b *oracleBuilder) fullCenterSets(w int32) (cin, cout []int32, edges int64) {
	out := b.outSetFor(w)
	coutSeen := graph.NewBitset(b.n)
	inCands := b.inCandsFor(w)
	for _, u := range inCands {
		cnt := 0
		b.eachCenterEdge(u, w, out, func(v int32) {
			cnt++
			coutSeen.Set(int(v))
		})
		if cnt > 0 {
			cin = append(cin, u)
			edges += int64(cnt)
		}
	}
	cout = coutSeen.Elements(nil)
	return cin, cout, edges
}

// outSetFor fills the scratch bitset with Cout(w) ∪ {w}.
func (b *oracleBuilder) outSetFor(w int32) graph.Bitset {
	b.outSet.Reset()
	b.outSet.Or(b.cl.Reach[w])
	b.outSet.Set(int(w))
	return b.outSet
}

func (b *oracleBuilder) inCandsFor(w int32) []int32 {
	cands := b.anc[w].Elements(nil)
	return append(cands, w)
}

// eachCenterEdge calls fn for every v such that (u,v) is an uncovered
// connection that center w may cover. For plain covers that is every
// uncovered (u,v) with v ∈ out (= Cout(w)∪{w}); for distance-aware
// covers w must additionally lie on a shortest u→v path (§5.2).
func (b *oracleBuilder) eachCenterEdge(u, w int32, out graph.Bitset, fn func(v int32)) {
	row := b.unc[u]
	for wi, word := range row {
		if wi < len(out) {
			word &= out[wi]
		} else {
			word = 0
		}
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			v := int32(wi*64 + bit)
			word &= word - 1
			if v == u {
				continue
			}
			if b.dm != nil {
				if b.dm.D(u, v) != satAdd(b.dm.D(u, w), b.dm.D(w, v)) {
					continue
				}
			}
			fn(v)
		}
	}
}

func satAdd(a, b uint32) uint32 {
	if a == graph.InfDist || b == graph.InfDist {
		return graph.InfDist
	}
	return a + b
}

// apply installs w as center for all pairs in cin × cout, adds the
// label entries and removes the covered connections from unc.
func (b *oracleBuilder) apply(w int32, cin, cout []int32) {
	coutSet := graph.NewBitset(b.n)
	for _, v := range cout {
		coutSet.Set(int(v))
		if b.dm != nil {
			b.cover.AddIn(v, w, b.dm.D(w, v))
		} else {
			b.cover.AddIn(v, w, 0)
		}
	}
	for _, u := range cin {
		if b.dm != nil {
			b.cover.AddOut(u, w, b.dm.D(u, w))
		} else {
			b.cover.AddOut(u, w, 0)
		}
		row := b.unc[u]
		if b.dm == nil {
			removed := row.IntersectionCount(coutSet)
			row.AndNot(coutSet)
			b.uncN -= int64(removed)
			continue
		}
		// Distance-aware: only connections for which w lies on a
		// shortest path are actually covered at the right distance.
		var toClear []int32
		b.eachCenterEdge(u, w, coutSet, func(v int32) { toClear = append(toClear, v) })
		for _, v := range toClear {
			row.Clear(int(v))
		}
		b.uncN -= int64(len(toClear))
	}
	b.stats.Centers++
}

// run executes the greedy main loop: pop the candidate center with the
// highest (possibly stale) density, recompute its densest subgraph, and
// either apply it or push it back with the corrected priority.
func (b *oracleBuilder) run() (*Cover, Stats) {
	pq := make(oracleQueue, 0, b.n)
	for w := int32(0); w < int32(b.n); w++ {
		d := b.initialDensity(w)
		if d > 0 {
			pq = append(pq, oracleCandidate{node: w, density: d})
		}
	}
	heap.Init(&pq)
	for b.uncN > 0 && pq.Len() > 0 {
		top := heap.Pop(&pq).(oracleCandidate)
		b.stats.Pops++
		density, cin, cout := b.densestSubgraph(top.node)
		if density <= 0 {
			continue
		}
		// Lazy invariant: priorities are upper bounds. If the fresh
		// density fell below the next candidate's (stale) priority,
		// push back and try the next one.
		if pq.Len() > 0 && density < pq[0].density {
			b.stats.Recomputes++
			heap.Push(&pq, oracleCandidate{node: top.node, density: density})
			continue
		}
		b.apply(top.node, cin, cout)
		// The node may serve as center again for connections the chosen
		// subgraph did not include.
		if d2, _, _ := b.densityOnly(top.node); d2 > 0 {
			heap.Push(&pq, oracleCandidate{node: top.node, density: d2})
		}
	}
	b.cover.Finish()
	return b.cover, b.stats
}

// initialDensity estimates the density of the densest subgraph of w's
// initial center graph without materializing it. For plain covers the
// initial center graph is (nearly) complete bipartite, so its density
// is known in closed form; for distance-aware covers completeness no
// longer holds and the paper's sampling estimator is used.
func (b *oracleBuilder) initialDensity(w int32) float64 {
	a := b.anc[w].Count()
	d := b.cl.Reach[w].Count()
	if a+d == 0 {
		return 0
	}
	if b.dm == nil {
		x := b.anc[w].IntersectionCount(b.cl.Reach[w])
		edges := float64(a+1)*float64(d+1) - float64(x) - 1
		return edges / float64(a+d+2)
	}
	return b.sampledDensity(w, a, d)
}

// sampledDensity implements §5.2: test at most SampleBudget random
// candidate edges of the initial center graph, compute the upper bound
// of the 98% confidence interval for the fraction of edges present, and
// estimate the maximal subgraph density as sqrt(E)/2.
func (b *oracleBuilder) sampledDensity(w int32, a, d int) float64 {
	ins := b.inCandsFor(w)
	out := b.outSetFor(w)
	outs := out.Elements(nil)
	total := int64(len(ins)) * int64(len(outs))
	if total == 0 {
		return 0
	}
	valid := func(u, v int32) bool {
		if u == v {
			return false
		}
		return b.dm.D(u, v) == satAdd(b.dm.D(u, w), b.dm.D(w, v))
	}
	var edges float64
	if total <= SampleBudget {
		cnt := 0
		for _, u := range ins {
			for _, v := range outs {
				if valid(u, v) {
					cnt++
				}
			}
		}
		edges = float64(cnt)
	} else {
		hit := 0
		for s := 0; s < SampleBudget; s++ {
			u := ins[b.rng.Intn(len(ins))]
			v := outs[b.rng.Intn(len(outs))]
			if valid(u, v) {
				hit++
			}
		}
		p := float64(hit) / float64(SampleBudget)
		pUp := p + z98*math.Sqrt(p*(1-p)/float64(SampleBudget))
		if pUp > 1 {
			pUp = 1
		}
		edges = pUp * float64(total)
	}
	if edges <= 0 {
		return 0
	}
	// Max density of any subgraph with E edges: balanced sides, as
	// complete as possible ⇒ E / (2·sqrt(E)) = sqrt(E)/2.
	return math.Sqrt(edges) / 2
}

// densestSubgraph materializes w's current center graph (uncovered
// connections only), runs the linear-time 2-approximation (repeatedly
// peel a minimum-degree vertex, keep the densest prefix) and returns
// the chosen density and center sets.
func (b *oracleBuilder) densestSubgraph(w int32) (float64, []int32, []int32) {
	return b.peel(w, false)
}

// densityOnly recomputes just the density for re-queueing.
func (b *oracleBuilder) densityOnly(w int32) (float64, []int32, []int32) {
	return b.peel(w, true)
}

func (b *oracleBuilder) peel(w int32, densityOnly bool) (float64, []int32, []int32) {
	out := b.outSetFor(w)
	inCands := b.inCandsFor(w)
	// Local vertex numbering: in-side first, then out-side.
	outIdx := make(map[int32]int32)
	var inNodes, outNodes []int32
	var adjIn [][]int32 // per in-node: out-side local ids
	for _, u := range inCands {
		var targets []int32
		b.eachCenterEdge(u, w, out, func(v int32) {
			li, ok := outIdx[v]
			if !ok {
				li = int32(len(outNodes))
				outIdx[v] = li
				outNodes = append(outNodes, v)
			}
			targets = append(targets, li)
		})
		if len(targets) > 0 {
			inNodes = append(inNodes, u)
			adjIn = append(adjIn, targets)
		}
	}
	ni, no := len(inNodes), len(outNodes)
	if ni == 0 || no == 0 {
		return 0, nil, nil
	}
	adjOut := make([][]int32, no)
	for i, targets := range adjIn {
		for _, t := range targets {
			adjOut[t] = append(adjOut[t], int32(i))
		}
	}
	nv := ni + no
	deg := make([]int, nv)
	edges := 0
	for i, targets := range adjIn {
		deg[i] = len(targets)
		edges += len(targets)
	}
	for t, srcs := range adjOut {
		deg[ni+t] = len(srcs)
	}
	// Bucket-based min-degree peeling.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < nv; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, nv)
	order := make([]int32, 0, nv)
	bestDensity := float64(edges) / float64(nv)
	bestStep := 0
	curEdges, curVerts := edges, nv
	cur := 0
	for step := 0; step < nv; step++ {
		// find the minimum-degree live vertex (lazy buckets)
		var v int32 = -1
		for {
			for cur <= maxDeg && len(buckets[cur]) == 0 {
				cur++
			}
			if cur > maxDeg {
				break
			}
			cand := buckets[cur][len(buckets[cur])-1]
			buckets[cur] = buckets[cur][:len(buckets[cur])-1]
			if removed[cand] || deg[cand] != cur {
				continue
			}
			v = cand
			break
		}
		if v < 0 {
			break
		}
		removed[v] = true
		order = append(order, v)
		curEdges -= deg[v]
		curVerts--
		var neigh []int32
		var off int32
		if int(v) < ni {
			neigh = adjIn[v]
			off = int32(ni)
		} else {
			neigh = adjOut[v-int32(ni)]
		}
		for _, t := range neigh {
			nvtx := t + off
			if removed[nvtx] {
				continue
			}
			deg[nvtx]--
			nd := deg[nvtx]
			buckets[nd] = append(buckets[nd], nvtx)
			if nd < cur {
				cur = nd
			}
		}
		if curVerts > 0 {
			if d := float64(curEdges) / float64(curVerts); d > bestDensity {
				bestDensity = d
				bestStep = step + 1
			}
		}
	}
	if densityOnly {
		return bestDensity, nil, nil
	}
	// Survivors after bestStep removals form the densest prefix.
	var cin, cout []int32
	survivor := make([]bool, nv)
	for v := 0; v < nv; v++ {
		survivor[v] = true
	}
	for _, v := range order[:bestStep] {
		survivor[v] = false
	}
	for i := 0; i < ni; i++ {
		if survivor[i] {
			cin = append(cin, inNodes[i])
		}
	}
	for t := 0; t < no; t++ {
		if survivor[ni+t] {
			cout = append(cout, outNodes[t])
		}
	}
	if len(cin) == 0 || len(cout) == 0 {
		return 0, nil, nil
	}
	return bestDensity, cin, cout
}

type oracleCandidate struct {
	node    int32
	density float64
}

type oracleQueue []oracleCandidate

func (q oracleQueue) Len() int           { return len(q) }
func (q oracleQueue) Less(i, j int) bool { return q[i].density > q[j].density }
func (q oracleQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

func (q *oracleQueue) Push(x any) { *q = append(*q, x.(oracleCandidate)) }

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
