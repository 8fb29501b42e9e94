package core

import (
	"fmt"
	"iter"

	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// Index is a built HOPI index over a collection. All query methods
// work on global element IDs (see xmlmodel.Collection). The index owns
// its cover; the collection stays owned by the caller but must only be
// mutated through the Index's maintenance methods once the index is
// built, or the two will diverge.
type Index struct {
	coll  *xmlmodel.Collection
	cover *twohop.Cover
	opts  Options
	stats BuildStats
	log   *ChangeLog // active maintenance recording, nil outside StartRecording
}

// newIndex wraps a finished cover and installs the index's delta
// recorder on it: from here on, every label mutation made through the
// cover's mutator methods goes to the active ChangeLog (when
// recording). Builders must finish all bulk label work before calling
// this.
func newIndex(c *xmlmodel.Collection, cover *twohop.Cover, opts Options, stats BuildStats) *Index {
	ix := &Index{coll: c, cover: cover, opts: opts, stats: stats}
	ix.cover.SetRecorder(ix.observeDelta)
	return ix
}

// observeDelta is the recorder every Index keeps installed on its
// cover: InsertEdge, the Theorem 2/3 deletion filters and document
// insertion all mutate labels through the cover, and a recording batch
// logs each change.
func (ix *Index) observeDelta(d twohop.CoverDelta) {
	if ix.log != nil {
		ix.log.Cover = append(ix.log.Cover, d)
	}
}

// DefaultOptions returns the paper's recommended configuration.
func DefaultOptions() Options {
	return Options{
		Partitioner:   PartClosureBudget,
		ClosureBudget: 1_000_000,
		Join:          JoinNewHBar,
	}
}

// NewFromCover wraps an existing cover (for example one adopting the
// sealed segments of a store) as a queryable, maintainable index.
// Future Rebuild calls use the default options, distance-aware when
// the cover is.
func NewFromCover(c *xmlmodel.Collection, cover *twohop.Cover) *Index {
	opts := DefaultOptions()
	opts.WithDistance = cover.WithDist
	return newIndex(c, cover, opts, BuildStats{})
}

// Collection returns the indexed collection.
func (ix *Index) Collection() *xmlmodel.Collection { return ix.coll }

// Cover exposes the underlying 2-hop cover (read-only use).
func (ix *Index) Cover() *twohop.Cover { return ix.cover }

// Stats returns the build statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }

// Size returns the number of stored label entries |L|.
func (ix *Index) Size() int { return ix.cover.Size() }

// Reaches reports whether element u reaches element v along the
// ancestor/descendant/link axes.
func (ix *Index) Reaches(u, v int32) bool { return ix.cover.Reaches(u, v) }

// Distance returns the shortest path length from u to v
// (graph.InfDist when unreachable). The index must have been built
// WithDistance.
func (ix *Index) Distance(u, v int32) (uint32, error) {
	if !ix.cover.WithDist {
		return 0, fmt.Errorf("core: index built without distance information")
	}
	return ix.cover.Distance(u, v), nil
}

// Descendants returns all elements reachable from u, including u,
// walked over the collection's own edges.
func (ix *Index) Descendants(u int32) []int32 { return reflexive(u, ix.coll.Walk(u, false)) }

// Ancestors returns all elements that reach u, including u.
func (ix *Index) Ancestors(u int32) []int32 { return reflexive(u, ix.coll.Walk(u, true)) }

// reflexive lists u and then, once each, the elements walk yields.
func reflexive(u int32, walk iter.Seq2[int32, uint32]) []int32 {
	out := []int32{u}
	for v := range walk {
		if v != u {
			out = append(out, v)
		}
	}
	return out
}

// SealSwapBase installs a sealed base that holds the cover's current
// labels — a checkpoint sealed its delta, or, for a cover without a
// base, all of it. The logical state is unchanged: published snapshots
// and resume tokens stay valid.
func (ix *Index) SealSwapBase(b *twohop.Base) {
	ix.cover.SealSwap(b, ix.cover.N(), ix.cover.Size())
}

// OnCycle reports whether element u lies on a cycle of the element
// graph, i.e. whether a path of length ≥ 1 leads from u back to u. The
// cover cannot say so by itself (self entries are implicit, §3.4), but
// tree edges only lead down: such a path ends with a link s → t into
// u's tree path and the tree edges from t down to u, so u lies on a
// cycle iff it reaches the source of one of those links.
func (ix *Index) OnCycle(u int32) bool {
	var lout, buf []twohop.Entry
	read := false
	for s := range ix.coll.LinksIntoPath(u) {
		if !read {
			lout, read = ix.cover.Lout(u), true
		}
		if twohop.ListReaches(u, lout, s, ix.cover.LinBuf(s, &buf)) {
			return true
		}
	}
	return false
}

// CycleDistance returns the length of the shortest cycle through u
// (graph.InfDist when u is not on any cycle): the minimum, over the
// links s → t that OnCycle reads, of dist(u, s) + 1 + the tree edges
// from t down to u. Like Distance it needs a distance-aware cover; on
// a plain one the result is meaningless.
func (ix *Index) CycleDistance(u int32) uint32 {
	var lout, buf []twohop.Entry
	read, best := false, graph.InfDist
	for s, down := range ix.coll.LinksIntoPath(u) {
		if !read {
			lout, read = ix.cover.Lout(u), true
		}
		if d := twohop.ListDistance(u, lout, s, ix.cover.LinBuf(s, &buf)); d != graph.InfDist {
			best = min(best, d+1+down)
		}
	}
	return best
}

// Clone returns a copy of the index: the collection, the cover, and
// the build metadata. Nothing is copied eagerly beyond the cover's
// node spines and the collection's document list: the collection and
// the cover share their documents, link arcs and label lists
// copy-on-write (each side copies what it writes first). Snapshot
// isolation builds on this: the clone can serve queries while the
// original is maintained (or vice versa) with no shared mutable state.
func (ix *Index) Clone() *Index {
	cl := &Index{
		coll:  ix.coll.Clone(),
		cover: ix.cover.Clone(),
		opts:  ix.opts,
		stats: ix.stats,
	}
	cl.cover.SetRecorder(cl.observeDelta)
	return cl
}

// Validate recomputes the ground-truth closure of the element graph
// and checks the cover against it — completeness, soundness, and (for
// distance indexes) exactness. Intended for tests and the experiment
// harness; cost is O(n²).
func (ix *Index) Validate() error {
	g := ix.coll.ElementGraph()
	if ix.cover.WithDist {
		dc := graph.NewDistClosure(g)
		return twohop.VerifyDistance(ix.cover, dc)
	}
	cl := graph.NewClosure(g)
	return twohop.Verify(ix.cover, cl)
}

// CompressionRatio returns |T| / |L|: how many closure connections each
// stored label entry stands for (≈21.6 for the paper's DBLP D&C build,
// ≈267 for the centralized one). It recomputes the closure size, so it
// is an experiment-harness helper, not a cheap accessor.
func (ix *Index) CompressionRatio() float64 {
	conns := graph.CountConnections(ix.coll.ElementGraph())
	if ix.cover.Size() == 0 {
		if conns == 0 {
			return 1
		}
		return 0
	}
	return float64(conns) / float64(ix.cover.Size())
}

// LabelStats summarizes the label distribution of the cover — the
// quantity that degrades under maintenance (§6: "over time, the space
// efficiency of the 2-hop cover ... may degrade") and that a Rebuild
// restores.
type LabelStats struct {
	Entries      int     // total stored entries |L|
	Nodes        int     // elements with at least one label entry
	MaxIn        int     // largest Lin
	MaxOut       int     // largest Lout
	AvgPerNode   float64 // entries per allocated element ID
	StoredBytes  int64   // 4 integers × 4 bytes per entry (§3.4 accounting)
	DistinctHubs int     // distinct centers used
}

// Labels computes the current label statistics.
func (ix *Index) Labels() LabelStats {
	st := LabelStats{}
	centers := map[int32]struct{}{}
	for v := 0; v < ix.cover.N(); v++ {
		in, out := ix.cover.Lin(int32(v)), ix.cover.Lout(int32(v))
		if len(in)+len(out) > 0 {
			st.Nodes++
		}
		st.Entries += len(in) + len(out)
		if len(in) > st.MaxIn {
			st.MaxIn = len(in)
		}
		if len(out) > st.MaxOut {
			st.MaxOut = len(out)
		}
		for _, e := range in {
			centers[e.Center] = struct{}{}
		}
		for _, e := range out {
			centers[e.Center] = struct{}{}
		}
	}
	if n := ix.cover.N(); n > 0 {
		st.AvgPerNode = float64(st.Entries) / float64(n)
	}
	st.StoredBytes = 16 * int64(st.Entries)
	st.DistinctHubs = len(centers)
	return st
}
