package twohop

import (
	"math"
	"math/bits"
	"math/rand"

	"hopi/internal/graph"
)

// Options configures cover construction.
type Options struct {
	// Preselect lists nodes that should be used as centers before the
	// density-driven selection starts — HOPI passes the targets of
	// cross-partition links here (§4.2), because the join step will use
	// them as centers anyway and pre-covering their connections avoids
	// redundant entries.
	Preselect []int32
	// Seed drives the edge-sampling RNG of the distance-aware density
	// estimation (§5.2). Builds are deterministic for a fixed seed.
	Seed int64
}

// Stats reports what the greedy construction did.
type Stats struct {
	Centers    int // center selections applied (including preselected)
	Recomputes int // densest-subgraph recomputations triggered by stale priorities
	Pops       int // priority-queue pops
}

// SampleBudget is the maximum number of candidate center-graph edges the
// distance-aware density estimation examines per node (§5.2: "at most
// 13,600 randomly chosen candidate edges").
const SampleBudget = 13600

// z98 is the normal quantile for a two-sided 98% confidence interval.
const z98 = 2.326

// Build computes a 2-hop cover for the connections in cl using the
// greedy approximation of Cohen et al. with HOPI's lazy priority queue.
func Build(cl *graph.Closure, opts Options) (*Cover, Stats) {
	b := newBuilder(cl, nil, opts)
	return b.run()
}

// BuildDistanceAware computes a distance-aware 2-hop cover: a center w
// may only cover a connection (u,v) if w lies on a shortest path from u
// to v, so that label distances always add up to exact shortest-path
// lengths (§5.2). The connections to cover are dc's reach rows.
func BuildDistanceAware(dc *graph.DistClosure, opts Options) (*Cover, Stats) {
	b := newBuilder(&dc.Closure, dc, opts)
	return b.run()
}

// bitRows returns n empty bitsets of capacity n cut from one allocation.
func bitRows(n int) []graph.Bitset {
	words := (n + 63) / 64
	slab := make([]uint64, n*words)
	rows := make([]graph.Bitset, n)
	for i := range rows {
		rows[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return rows
}

type builder struct {
	n      int
	cl     *graph.Closure
	dc     *graph.DistClosure // nil for plain covers; cl is its closure otherwise
	anc    []graph.Bitset     // transpose of cl.Reach
	unc    []graph.Bitset     // not-yet-covered connections, per source
	uncRow []int32            // |unc[u]|, so a fully covered row is skipped without a word scan
	uncN   int64
	cover  *Cover
	rng    *rand.Rand
	stats  Stats
	s      scratch
}

// scratch is the arena one Build call does all its center-graph work
// in. Every slice is reused from pop to pop and grows only while the
// center graphs still get bigger, so a warmed-up pop allocates nothing.
// It lives and dies with its builder: nothing is pooled across builds.
type scratch struct {
	outSet  graph.Bitset // Cout(w) ∪ {w}
	coutSet graph.Bitset // the chosen Cout while apply clears it from rows; empty between calls
	// dW[v] = D(w,v) for every v in outSet, distance-aware covers only:
	// w's row expanded once per center graph, so the kernel's inner
	// loops read w's side with one load. Other entries are stale.
	dW   []uint32
	kept graph.Bitset // viaCenter's result, distance-aware covers only

	// The center graph under work, in local vertex numbers: in-side
	// vertex i is inNodes[i], out-side vertex t is outNodes[t]. Both
	// sides are CSR: i's neighbours are inAdj[inOff[i]:inOff[i+1]]
	// (out-side numbers), t's are outAdj[outOff[t]:outOff[t+1]].
	inNodes, outNodes []int32
	inOff, inAdj      []int32
	outOff, outAdj    []int32
	outLocal          []int32 // global id → out-side number, -1 when unseen; all -1 between calls
	perOut            []int32 // per out-side vertex: finishGraph's fill cursors, remainder's new numbers
	outSpare          []int32 // remainder lists the new outNodes here, then swaps the two

	// Peel state over vertices 0..ni+no (in-side first): cut marks the
	// vertices outside the chosen subgraph (none before a peel), and
	// head[d] is the top of degree d's bucket, a stack threaded through
	// stack.
	cut   []bool
	deg   []int32
	order []int32
	head  []int32
	stack []bucketEntry

	ins, outs []int32 // sampledDensity's candidate endpoints
	// sampledDensity's samples: drawn holds (in-index, out-index) pairs
	// in draw order, bySource their out-indices grouped by in-index,
	// first the group bounds.
	drawn, bySource, first []int32
}

func newBuilder(cl *graph.Closure, dc *graph.DistClosure, opts Options) *builder {
	n := len(cl.Reach)
	b := &builder{
		n:      n,
		cl:     cl,
		dc:     dc,
		anc:    bitRows(n),
		unc:    bitRows(n),
		uncRow: make([]int32, n),
		cover:  NewCover(n, dc != nil),
		rng:    rand.New(rand.NewSource(opts.Seed)),
	}
	if dc != nil {
		b.s.dW, b.s.kept = make([]uint32, n), graph.NewBitset(n)
	}
	for u := 0; u < n; u++ {
		copy(b.unc[u], cl.Reach[u])
		for wi, word := range b.unc[u] {
			b.uncRow[u] += int32(bits.OnesCount64(word))
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b.anc[v].Set(u)
			}
		}
		b.uncN += int64(b.uncRow[u])
	}
	b.s.outSet = graph.NewBitset(n)
	b.s.coutSet = graph.NewBitset(n)
	b.s.outLocal = make([]int32, n)
	for i := range b.s.outLocal {
		b.s.outLocal[i] = -1
	}
	b.preselect(opts.Preselect)
	return b
}

// grown returns s resized to n elements, reallocating (with headroom)
// only when its capacity is short. The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}

// preselect applies the §4.2 optimization: use the given nodes (link
// targets) as centers for *all* connections they can cover, before the
// density-driven main loop starts.
func (b *builder) preselect(centers []int32) {
	for _, w := range centers {
		if b.uncN == 0 {
			return
		}
		// An unpeeled center graph has no vertex cut, so apply takes
		// all of Cin(w) × Cout(w).
		if b.centerGraph(w) {
			b.apply(w)
		}
	}
}

// outSetFor fills the scratch bitset with Cout(w) ∪ {w}, and for
// distance-aware covers dW with w's distances to it, and returns the
// range of its non-zero words.
func (b *builder) outSetFor(w int32) (lo, hi int) {
	out := b.s.outSet
	clear(out[copy(out, b.cl.Reach[w]):])
	out.Set(int(w))
	if b.dc != nil {
		b.dc.ExpandRow(w, b.s.dW)
	}
	lo = len(out)
	for wi, word := range out {
		if word != 0 {
			lo = min(lo, wi)
			hi = wi
		}
	}
	return lo, hi
}

// centerGraph materializes w's current center graph in the arena: the
// uncovered connections (u,v) that w may cover, u ∈ Cin(w) ∪ {w} and
// v ∈ Cout(w) ∪ {w}. Vertices are numbered as discovered — in-side by
// ascending u with w last, out-side as the rows first name them, each
// row listing its targets by ascending v — and the peel's tie-breaks,
// hence the cover, depend on exactly that order. It reports whether
// the graph has any edge.
func (b *builder) centerGraph(w int32) bool {
	s := &b.s
	s.inNodes, s.outNodes = s.inNodes[:0], s.outNodes[:0]
	s.inOff, s.inAdj = s.inOff[:0], s.inAdj[:0]
	lo, hi := b.outSetFor(w)
	for wi, word := range b.anc[w] {
		for word != 0 {
			u := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			b.scanRow(u, w, lo, hi)
		}
	}
	b.scanRow(w, w, lo, hi)
	for _, v := range s.outNodes {
		s.outLocal[v] = -1
	}
	return b.finishGraph()
}

// scanRow appends u's center-graph edges to the in-side CSR: every
// uncovered (u,v) with v in the out set (whose non-zero words are
// lo..hi); for distance-aware covers w must additionally lie on a
// shortest u→v path (§5.2).
func (b *builder) scanRow(u, w int32, lo, hi int) {
	if b.uncRow[u] == 0 {
		return
	}
	s := &b.s
	row := b.unc[u][lo : hi+1]
	out := s.outSet[lo : hi+1][:len(row)]
	if b.dc != nil {
		row = b.viaCenter(u, w, row, out, lo)
	}
	adj, outNodes, outLocal := s.inAdj, s.outNodes, s.outLocal
	start := len(adj)
	for k, word := range row {
		word &= out[k]
		for word != 0 {
			v := int32((lo+k)<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			t := outLocal[v]
			if t < 0 {
				t = int32(len(outNodes))
				outLocal[v] = t
				outNodes = append(outNodes, v)
			}
			adj = append(adj, t)
		}
	}
	if len(adj) > start {
		s.inNodes = append(s.inNodes, u)
		s.inOff = append(s.inOff, int32(start))
	}
	s.inAdj, s.outNodes = adj, outNodes
}

// viaCenter returns, in the arena, the words lo.. of row ∩ out — u's
// uncovered candidates — reduced to the v for which the center w lies
// on a shortest u→v path: D(u,v) = D(u,w) + D(w,v). D(u,v) is read off
// u's closure row by word rank (unc[u] ⊆ Reach[u], so v's bit is set
// there) and D(w,v) off dW. u reaches w and w reaches every candidate,
// so every distance is finite and the sum cannot saturate. It is a
// pass of its own so that its loop and scanRow's keep their values in
// registers.
func (b *builder) viaCenter(u, w int32, row, out graph.Bitset, lo int) graph.Bitset {
	reach, rank := b.cl.Reach[u][lo:lo+len(row)], b.dc.RowRank(u)[lo:lo+len(row)]
	dist, duw := b.dc.Dist, b.dc.D(u, w)
	kept := b.s.kept[:len(row)]
	for k, word := range row {
		keep := word & out[k]
		dW := b.s.dW[(lo+k)<<6:]
		for c := keep; c != 0; c &= c - 1 {
			low := c & -c
			if dist[rank[k]+uint32(bits.OnesCount64(reach[k]&(low-1)))] != duw+dW[bits.TrailingZeros64(c)] {
				keep &^= low
			}
		}
		kept[k] = keep
	}
	return kept
}

// finishGraph closes the in-side CSR, derives the out-side CSR from a
// degree count (so each out-side vertex lists its sources in ascending
// in-side number) and clears the cut marks. It reports whether the
// graph has any edge.
func (b *builder) finishGraph() bool {
	s := &b.s
	ni, no := len(s.inNodes), len(s.outNodes)
	if ni == 0 {
		return false
	}
	edges := len(s.inAdj)
	s.inOff = append(s.inOff, int32(edges))
	s.outOff = grown(s.outOff, no+1)
	clear(s.outOff)
	for _, t := range s.inAdj {
		s.outOff[t+1]++
	}
	for t := 0; t < no; t++ {
		s.outOff[t+1] += s.outOff[t]
	}
	s.outAdj = grown(s.outAdj, edges)
	s.perOut = grown(s.perOut, no)
	fill := s.perOut
	copy(fill, s.outOff)
	for i := 0; i < ni; i++ {
		for _, t := range s.inAdj[s.inOff[i]:s.inOff[i+1]] {
			s.outAdj[fill[t]] = int32(i)
			fill[t]++
		}
	}
	s.cut = grown(s.cut, ni+no)
	clear(s.cut)
	return true
}

// apply installs w as center for the part of its center graph that is
// not cut: adds the label entries for that Cin × Cout and takes the
// connections it covers out of unc.
func (b *builder) apply(w int32) {
	s := &b.s
	ni := len(s.inNodes)
	var dw []uint32 // outSetFor(w) filled it for the center graph under work
	if b.dc != nil {
		dw = s.dW
	}
	cout := s.coutSet
	lo, hi := len(cout), 0
	for t, v := range s.outNodes {
		if s.cut[ni+t] {
			continue
		}
		cout.Set(int(v))
		lo, hi = min(lo, int(v)>>6), max(hi, int(v)>>6)
		var d uint32
		if dw != nil {
			d = dw[v]
		}
		b.cover.AddIn(v, w, d)
	}
	for i, u := range s.inNodes {
		if s.cut[i] {
			continue
		}
		row := b.unc[u]
		var d uint32
		cleared := 0
		if b.dc == nil {
			for wi := lo; wi <= hi; wi++ {
				cleared += bits.OnesCount64(row[wi] & cout[wi])
				row[wi] &^= cout[wi]
			}
		} else {
			// Only connections with w on a shortest path are covered at
			// the right distance: u's edges in the center graph.
			d = b.dc.D(u, w)
			for _, t := range s.inAdj[s.inOff[i]:s.inOff[i+1]] {
				if !s.cut[ni+int(t)] {
					row.Clear(int(s.outNodes[t]))
					cleared++
				}
			}
		}
		b.cover.AddOut(u, w, d)
		b.uncRow[u] -= int32(cleared)
		b.uncN -= int64(cleared)
	}
	if lo <= hi {
		clear(cout[lo : hi+1])
	}
	b.stats.Centers++
}

// remainder reduces the arena's center graph to the edges apply left
// uncovered — those with an endpoint that was cut — renumbering the
// vertices as centerGraph would on enumerating them afresh. It reports
// whether any edge is left.
func (b *builder) remainder() bool {
	s := &b.s
	ni, no := len(s.inNodes), len(s.outNodes)
	s.perOut = grown(s.perOut, no)
	renum, outNodes := s.perOut, s.outSpare[:0]
	for t := range renum {
		renum[t] = -1
	}
	// Both CSR arrays are compacted in place: the write positions never
	// pass the read positions.
	kept, edges := 0, int32(0)
	for i := 0; i < ni; i++ {
		start := edges
		for _, t := range s.inAdj[s.inOff[i]:s.inOff[i+1]] {
			if !s.cut[i] && !s.cut[ni+int(t)] {
				continue
			}
			if renum[t] < 0 {
				renum[t] = int32(len(outNodes))
				outNodes = append(outNodes, s.outNodes[t])
			}
			s.inAdj[edges] = renum[t]
			edges++
		}
		if edges > start {
			s.inNodes[kept] = s.inNodes[i]
			s.inOff[kept] = start
			kept++
		}
	}
	s.inNodes, s.inOff, s.inAdj = s.inNodes[:kept], s.inOff[:kept], s.inAdj[:edges]
	s.outNodes, s.outSpare = outNodes, s.outNodes
	return b.finishGraph()
}

// run executes the greedy main loop: pop the candidate center with the
// highest (possibly stale) density, recompute its densest subgraph, and
// either apply it or push it back with the corrected priority.
func (b *builder) run() (*Cover, Stats) {
	pq := make(candidateQueue, 0, b.n)
	for w := int32(0); w < int32(b.n); w++ {
		d := b.initialDensity(w)
		if d > 0 {
			pq = append(pq, candidate{node: w, density: d})
		}
	}
	pq.init()
	for b.uncN > 0 && len(pq) > 0 {
		top := pq.pop()
		b.stats.Pops++
		if !b.centerGraph(top.node) {
			continue
		}
		density, ncut := b.peel()
		// Lazy invariant: priorities are upper bounds. If the fresh
		// density fell below the next candidate's (stale) priority,
		// push back and try the next one.
		if len(pq) > 0 && density < pq[0].density {
			b.stats.Recomputes++
			pq.push(candidate{node: top.node, density: density})
			continue
		}
		b.apply(top.node)
		// The node may serve as center again for connections the chosen
		// subgraph did not include; when it took the whole center graph
		// there are none.
		if ncut > 0 && b.remainder() {
			d2, _ := b.peel()
			pq.push(candidate{node: top.node, density: d2})
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
func (b *builder) initialDensity(w int32) float64 {
	a := b.anc[w].Count()
	d := b.cl.Reach[w].Count()
	if a+d == 0 {
		return 0
	}
	if b.dc == nil {
		x := b.anc[w].IntersectionCount(b.cl.Reach[w])
		edges := float64(a+1)*float64(d+1) - float64(x) - 1
		return edges / float64(a+d+2)
	}
	return b.sampledDensity(w)
}

// sampledDensity implements §5.2: test at most SampleBudget random
// candidate edges of the initial center graph, compute the upper bound
// of the 98% confidence interval for the fraction of edges present, and
// estimate the maximal subgraph density as sqrt(E)/2.
func (b *builder) sampledDensity(w int32) float64 {
	s := &b.s
	b.outSetFor(w)
	s.ins = append(b.anc[w].Elements(s.ins[:0]), w)
	s.outs = s.outSet.Elements(s.outs[:0])
	ins, outs := s.ins, s.outs
	total := int64(len(ins)) * int64(len(outs))
	// Every u in ins reaches w and w reaches every v in outs, so w lies
	// on a shortest u→v path iff the finite sum below is D(u,v).
	dc, dw := b.dc, s.dW
	var edges float64
	if total <= SampleBudget {
		cnt := 0
		for _, u := range ins {
			duw := dc.D(u, w)
			for _, v := range outs {
				if u != v && dc.D(u, v) == duw+dw[v] {
					cnt++
				}
			}
		}
		edges = float64(cnt)
	} else {
		// Draw every sample in the RNG order that defines the estimate,
		// then test them grouped by source: D(u,w) once per u, and each
		// D(u,v) off the one closure row that is in cache.
		first := grown(s.first, len(ins)+1)
		clear(first)
		drawn := grown(s.drawn, 2*SampleBudget)
		for i := 0; i < 2*SampleBudget; i += 2 {
			drawn[i] = int32(b.rng.Intn(len(ins)))
			drawn[i+1] = int32(b.rng.Intn(len(outs)))
			first[drawn[i]+1]++
		}
		for i := range len(ins) {
			first[i+1] += first[i]
		}
		// Counting sort: bySource[first[i]:first[i+1]] become the
		// out-indices drawn with source ins[i]. first[i] is i's fill
		// cursor and ends at the start of i+1, so it shifts back after.
		bySource := grown(s.bySource, SampleBudget)
		for i := 0; i < 2*SampleBudget; i += 2 {
			bySource[first[drawn[i]]] = drawn[i+1]
			first[drawn[i]]++
		}
		copy(first[1:], first[:len(ins)])
		first[0] = 0
		hit := 0
		for i, u := range ins {
			if first[i] == first[i+1] {
				continue
			}
			duw := dc.D(u, w)
			for _, vi := range bySource[first[i]:first[i+1]] {
				if v := outs[vi]; u != v && dc.D(u, v) == duw+dw[v] {
					hit++
				}
			}
		}
		s.first, s.drawn, s.bySource = first, drawn, bySource
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

// peel runs the linear-time 2-approximation of the densest subgraph on
// the arena's center graph: repeatedly remove a minimum-degree vertex,
// keep the densest prefix. It returns that density and how many
// vertices were cut off to reach it, and marks exactly those vertices
// in s.cut.
func (b *builder) peel() (density float64, ncut int) {
	s := &b.s
	ni, no := len(s.inNodes), len(s.outNodes)
	nv, edges := ni+no, len(s.inAdj)
	density = float64(edges) / float64(nv)
	if edges == ni*no {
		// Complete bipartite: removing vertices only lowers the
		// density, so the peel would keep the whole graph.
		return density, 0
	}
	s.deg = grown(s.deg, nv)
	deg := s.deg // -1 once the vertex is peeled
	maxDeg := int32(0)
	for i := 0; i < ni; i++ {
		deg[i] = s.inOff[i+1] - s.inOff[i]
		maxDeg = max(maxDeg, deg[i])
	}
	for t := 0; t < no; t++ {
		deg[ni+t] = s.outOff[t+1] - s.outOff[t]
		maxDeg = max(maxDeg, deg[ni+t])
	}
	// Bucket-based min-degree peeling. A vertex is pushed on its new
	// bucket at every degree change and never unlinked from the old
	// one: a popped entry counts only if it still tells the truth.
	s.head = grown(s.head, int(maxDeg)+1)
	s.stack = grown(s.stack, nv+edges)
	head, stack := s.head, s.stack
	for d := range head {
		head[d] = -1
	}
	top := int32(0)
	for v := int32(0); v < int32(nv); v++ {
		stack[top] = bucketEntry{vert: v, next: head[deg[v]]}
		head[deg[v]] = top
		top++
	}
	order := s.order[:0]
	curEdges, curVerts := edges, nv
	cur := int32(0)
	for step := 0; step < nv; step++ {
		// find the minimum-degree live vertex (lazy buckets)
		var v int32 = -1
		for {
			for cur <= maxDeg && head[cur] < 0 {
				cur++
			}
			if cur > maxDeg {
				break
			}
			e := stack[head[cur]]
			head[cur] = e.next
			if deg[e.vert] != cur {
				continue
			}
			v = e.vert
			break
		}
		if v < 0 {
			break
		}
		order = append(order, v)
		curEdges -= int(deg[v])
		curVerts--
		deg[v] = -1
		var neigh []int32
		var off int32
		if int(v) < ni {
			neigh = s.inAdj[s.inOff[v]:s.inOff[v+1]]
			off = int32(ni)
		} else {
			t := v - int32(ni)
			neigh = s.outAdj[s.outOff[t]:s.outOff[t+1]]
		}
		for _, t := range neigh {
			x := t + off
			nd := deg[x] - 1
			if nd < 0 {
				continue // peeled earlier
			}
			deg[x] = nd
			stack[top] = bucketEntry{vert: x, next: head[nd]}
			head[nd] = top
			top++
			if nd < cur {
				cur = nd
			}
		}
		if curVerts > 0 {
			if d := float64(curEdges) / float64(curVerts); d > density {
				density = d
				ncut = step + 1
			}
		}
	}
	// Survivors after ncut removals form the densest prefix.
	for _, v := range order[:ncut] {
		s.cut[v] = true
	}
	s.order = order
	return density, ncut
}

// bucketEntry is one element of a degree bucket: a vertex and the index
// of the entry below it, -1 at the bottom.
type bucketEntry struct{ vert, next int32 }

type candidate struct {
	node    int32
	density float64
}

// candidateQueue is a max-heap of candidates by density. It sifts
// exactly as container/heap does, so equal densities pop in the same
// order, without boxing every candidate into an interface.
type candidateQueue []candidate

func (q candidateQueue) less(i, j int) bool { return q[i].density > q[j].density }

func (q candidateQueue) init() {
	n := len(q)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

func (q *candidateQueue) push(c candidate) {
	*q = append(*q, c)
	q.up(len(*q) - 1)
}

func (q *candidateQueue) pop() candidate {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	*q = h[:n]
	return h[n]
}

func (q candidateQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q candidateQueue) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
