// Package partition implements HOPI's document-level partitioning
// (§3.3 and §4.3): dividing a collection into partitions whose
// transitive closures fit in memory, so that per-partition 2-hop covers
// can be computed independently and joined afterwards.
//
// Two partitioners are provided. NodeCapped is the original HOPI
// algorithm that conservatively limits the sum of node weights
// (element counts) per partition. ClosureBudget is the §4.3
// improvement that grows a partition until the size of its transitive
// closure reaches the memory budget, which yields fuller partitions and
// fewer cross-partition links. Both grow partitions greedily along the
// heaviest document-level edges; edge weights come from weights.go
// (link counts or the skeleton-graph A*D / A+D estimates).
package partition

import (
	"fmt"
	"math/rand"

	"hopi/internal/xmlmodel"
)

// Partitioning is the paper's P(X) = ({P1..Pm}, LP): disjoint document
// partitions plus the set of cross-partition links.
type Partitioning struct {
	// Parts lists the document indexes of each partition.
	Parts [][]int
	// PartOf maps a document index to its partition, -1 for tombstones.
	PartOf []int
	// CrossLinks is LP: the inter-document links whose endpoints lie in
	// different partitions.
	CrossLinks []xmlmodel.Link
}

// NumParts returns the number of partitions.
func (p *Partitioning) NumParts() int { return len(p.Parts) }

// PartOfID returns the partition of the document owning the global
// element id.
func (p *Partitioning) PartOfID(c *xmlmodel.Collection, id int32) int {
	return p.PartOf[c.DocOfID(id)]
}

// Validate checks the partitioning invariants: every live document in
// exactly one partition, partitions disjoint, cross links exactly the
// links crossing partitions.
func (p *Partitioning) Validate(c *xmlmodel.Collection) error {
	seen := map[int]bool{}
	for pi, docs := range p.Parts {
		for _, d := range docs {
			if seen[d] {
				return fmt.Errorf("partition: document %d in two partitions", d)
			}
			seen[d] = true
			if p.PartOf[d] != pi {
				return fmt.Errorf("partition: PartOf[%d] = %d, want %d", d, p.PartOf[d], pi)
			}
		}
	}
	for _, di := range c.LiveDocIndexes() {
		if !seen[di] {
			return fmt.Errorf("partition: live document %d unassigned", di)
		}
	}
	want := 0
	for _, l := range c.Links {
		if p.PartOfID(c, l.From) != p.PartOfID(c, l.To) {
			want++
		}
	}
	if len(p.CrossLinks) != want {
		return fmt.Errorf("partition: %d cross links recorded, want %d", len(p.CrossLinks), want)
	}
	return nil
}

// crossLinks extracts LP for an assignment.
func crossLinks(c *xmlmodel.Collection, partOf []int) []xmlmodel.Link {
	var out []xmlmodel.Link
	for _, l := range c.Links {
		if partOf[c.DocOfID(l.From)] != partOf[c.DocOfID(l.To)] {
			out = append(out, l)
		}
	}
	return out
}

// Whole puts every live document into one partition — the centralized
// baseline (no cross links, one giant closure).
func Whole(c *xmlmodel.Collection) *Partitioning {
	partOf := make([]int, len(c.Docs))
	for i := range partOf {
		partOf[i] = -1
	}
	docs := c.LiveDocIndexes()
	for _, d := range docs {
		partOf[d] = 0
	}
	return &Partitioning{Parts: [][]int{docs}, PartOf: partOf}
}

// Single puts every live document into its own partition — the "naive"
// run of Table 2.
func Single(c *xmlmodel.Collection) *Partitioning {
	partOf := make([]int, len(c.Docs))
	for i := range partOf {
		partOf[i] = -1
	}
	var parts [][]int
	for _, d := range c.LiveDocIndexes() {
		partOf[d] = len(parts)
		parts = append(parts, []int{d})
	}
	p := &Partitioning{Parts: parts, PartOf: partOf}
	p.CrossLinks = crossLinks(c, partOf)
	return p
}

// NodeCapped is the original HOPI partitioner: grow partitions along
// the heaviest document-level edges while the summed element count
// stays below maxNodes. A document larger than the cap forms its own
// partition. Seed order is randomized (deterministically, from seed),
// matching the paper's randomized partitioner.
func NodeCapped(c *xmlmodel.Collection, maxNodes int, w map[[2]int32]float64, seed int64) *Partitioning {
	nodes := 0
	return grow(c, w, seed,
		func(doc int) { nodes = c.Docs[doc].Len() },
		func(doc int) bool {
			nodes += c.Docs[doc].Len()
			return nodes <= maxNodes
		})
}

// ClosureBudget is the §4.3 partitioner: grow a partition while the
// number of connections in its transitive closure stays within
// maxConnections. The closure is maintained "while incrementally
// building the partition" (closureState): a candidate document costs
// the rows its edges touch, not a recomputation. The first document
// that overflows the budget seals the partition, so the state never
// has to take a document back out.
func ClosureBudget(c *xmlmodel.Collection, maxConnections int64, w map[[2]int32]float64, seed int64) *Partitioning {
	st := newClosureState(c)
	return grow(c, w, seed,
		func(doc int) {
			st.reset()
			st.addDoc(doc)
		},
		func(doc int) bool {
			st.addDoc(doc)
			return st.conns <= maxConnections
		})
}

// grow implements the shared greedy growth: repeatedly start a
// partition from the next unassigned seed (always accepted: a
// one-document partition is legal whatever its size) and absorb the
// unassigned neighbor with the heaviest connecting weight until accept
// rejects it, which seals the partition.
func grow(c *xmlmodel.Collection, w map[[2]int32]float64,
	seed int64, start func(seedDoc int), accept func(doc int) bool) *Partitioning {

	live := c.LiveDocIndexes()
	rng := rand.New(rand.NewSource(seed))
	order := append([]int(nil), live...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	partOf := make([]int, len(c.Docs))
	for i := range partOf {
		partOf[i] = -1
	}
	docG, linkCount := c.DocGraph()
	weight := func(a, b int32) float64 {
		if w != nil {
			return w[[2]int32{a, b}]
		}
		return float64(linkCount[[2]int32{a, b}])
	}

	var parts [][]int
	for _, seedDoc := range order {
		if partOf[seedDoc] >= 0 {
			continue
		}
		pi := len(parts)
		var docs []int
		// frontier: unassigned neighbor → accumulated edge weight
		frontier := map[int]float64{}
		add := func(d int) {
			partOf[d] = pi
			docs = append(docs, d)
			for _, nb := range docG.Succ(int32(d)) {
				if partOf[nb] < 0 {
					frontier[int(nb)] += weight(int32(d), nb) + 1e-9
				}
			}
			for _, nb := range docG.Pred(int32(d)) {
				if partOf[nb] < 0 {
					frontier[int(nb)] += weight(nb, int32(d)) + 1e-9
				}
			}
		}
		start(seedDoc)
		add(seedDoc)
		for len(frontier) > 0 {
			// heaviest neighbor, ties to the lowest document index
			best, bestW := -1, -1.0
			for d, fw := range frontier {
				if fw > bestW || fw == bestW && d < best {
					best, bestW = d, fw
				}
			}
			delete(frontier, best)
			if !accept(best) {
				// partition sealed — paper: "continues with the next
				// partition when the transitive closure is as large as
				// the available memory"
				break
			}
			add(best)
		}
		parts = append(parts, docs)
	}
	p := &Partitioning{Parts: parts, PartOf: partOf}
	p.CrossLinks = crossLinks(c, partOf)
	return p
}
