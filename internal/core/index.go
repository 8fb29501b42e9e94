package core

import (
	"fmt"
	"sync"

	"hopi/internal/graph"
	"hopi/internal/psg"
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
	ixMu  sync.Mutex      // guards the lazy init of ix under concurrent readers
	ix    *psg.CoverIndex // center→owners postings for ancestor/descendant, semijoins + maintenance
	cycMu sync.Mutex      // guards the lazy init of cyc
	cyc   *cyclicInfo     // derived cycle info; nil after a mutation that can change it
	opts  Options
	stats BuildStats
	log   *ChangeLog // active maintenance recording, nil outside StartRecording
}

// newIndex wraps a finished cover and installs the index's delta
// dispatcher on it: from here on, every label mutation made through
// the cover's mutator methods is fanned out to the active ChangeLog
// (when recording) and to the posting index (when warm). Builders must
// finish all bulk label work before calling this.
func newIndex(c *xmlmodel.Collection, cover *twohop.Cover, opts Options, stats BuildStats) *Index {
	ix := &Index{coll: c, cover: cover, opts: opts, stats: stats}
	ix.cover.SetRecorder(ix.observeDelta)
	return ix
}

// observeDelta is the single recorder every Index keeps installed on
// its cover. Routing all deltas through one dispatcher lets incremental
// maintenance keep the posting index warm — InsertEdge, the Theorem 2/3
// deletion filters and document insertion all mutate labels through the
// cover, so the backward index follows in lockstep instead of being
// invalidated and rebuilt per batch.
func (ix *Index) observeDelta(d twohop.CoverDelta) {
	if ix.log != nil {
		ix.log.Cover = append(ix.log.Cover, d)
	}
	ix.ixMu.Lock()
	if ix.ix != nil {
		ix.ix.ApplyDelta(d)
	}
	ix.ixMu.Unlock()
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

// Descendants returns all elements reachable from u, including u.
func (ix *Index) Descendants(u int32) []int32 { return ix.coverIndex().Descendants(u) }

// Ancestors returns all elements that reach u, including u.
func (ix *Index) Ancestors(u int32) []int32 { return ix.coverIndex().Ancestors(u) }

// Postings returns the center→owners posting index over the cover,
// building it on first use. The set-at-a-time query evaluator unions
// frontier Lout centers and expands them through InOwners postings (the
// §5.1 semijoin); the handle stays valid and warm across maintenance.
func (ix *Index) Postings() *psg.CoverIndex { return ix.coverIndex() }

func (ix *Index) coverIndex() *psg.CoverIndex {
	ix.ixMu.Lock()
	defer ix.ixMu.Unlock()
	if ix.ix == nil {
		ix.ix = psg.NewCoverIndex(ix.cover)
	}
	return ix.ix
}

// invalidate drops the derived posting index after a wholesale cover
// swap (Rebuild). Incremental maintenance never calls it — the delta
// dispatcher keeps the postings warm.
func (ix *Index) invalidate() {
	ix.ixMu.Lock()
	ix.ix = nil
	ix.ixMu.Unlock()
}

// SealSwapBase installs a sealed base that holds the cover's current
// labels — a checkpoint sealed its delta, or, for a cover without a
// base, all of it — and rebases the warm posting index in the same
// critical section, so no delta can slip between the two. The logical
// state is unchanged: published snapshots and resume tokens stay
// valid.
func (ix *Index) SealSwapBase(b *twohop.Base) {
	ix.ixMu.Lock()
	defer ix.ixMu.Unlock()
	ix.cover.SealSwap(b, ix.cover.N(), ix.cover.Size())
	if ix.ix != nil {
		ix.ix.Postings().Rebase(b)
	}
}

// cyclic lazily derives the element-graph cycle information.
func (ix *Index) cyclic() *cyclicInfo {
	ix.cycMu.Lock()
	defer ix.cycMu.Unlock()
	if ix.cyc == nil {
		ix.cyc = computeCyclic(ix.coll)
	}
	return ix.cyc
}

// invalidateCyclic drops the derived cycle info after a structural
// mutation that can open or close a cycle.
func (ix *Index) invalidateCyclic() {
	ix.dropCyclicIf(func(*cyclicInfo) bool { return true })
}

// dropCyclicIf drops the derived cycle info when stale reports that a
// structural mutation may have changed it. Kept info stays shared with
// the snapshots that already hold it, so batches that open and close
// no cycle spare the next snapshot a pass over the element graph.
func (ix *Index) dropCyclicIf(stale func(*cyclicInfo) bool) {
	ix.cycMu.Lock()
	if ix.cyc != nil && stale(ix.cyc) {
		ix.cyc = nil
	}
	ix.cycMu.Unlock()
}

// OnCycle reports whether element u lies on a cycle of the element
// graph, i.e. whether a path of length ≥ 1 leads from u back to u.
func (ix *Index) OnCycle(u int32) bool { return ix.cyclic().onCycle(u) }

// CycleDistance returns the length of the shortest cycle through u
// (graph.InfDist when u is not on any cycle).
func (ix *Index) CycleDistance(u int32) uint32 { return ix.cyclic().cycleDist(u) }

// CyclicSet returns the bitset of elements lying on element-graph
// cycles. The bitset is immutable — callers must not modify it; it
// lets hot loops test many elements without per-call locking.
func (ix *Index) CyclicSet() graph.Bitset { return ix.cyclic().on }

// ReachesProper reports whether a path of length ≥ 1 leads from u to
// v. This is the descendant-axis ("//") semantics: for u ≠ v it
// coincides with Reaches, and u //-matches itself only through a
// genuine cycle — unlike Reaches, whose reflexivity mirrors the
// paper's connection relation.
func (ix *Index) ReachesProper(u, v int32) bool {
	if u == v {
		return ix.OnCycle(u)
	}
	return ix.cover.Reaches(u, v)
}

// Clone returns a copy of the index: the collection, the cover, and
// the build metadata. Nothing is copied eagerly beyond the cover's
// node spines: the collection and the cover share their documents and
// label lists copy-on-write (each side copies what it writes first),
// the posting index is shared as an immutable view (copy-on-write on
// the live side), and the cycle info — immutable once computed — by
// pointer. Snapshot isolation builds on this: the clone can serve
// queries while the original is maintained (or vice versa) with no
// shared mutable state.
func (ix *Index) Clone() *Index {
	cl := &Index{
		coll:  ix.coll.Clone(),
		cover: ix.cover.Clone(),
		opts:  ix.opts,
		stats: ix.stats,
	}
	ix.ixMu.Lock()
	if ix.ix != nil {
		cl.ix = ix.ix.ShareFor(cl.cover)
	}
	ix.ixMu.Unlock()
	ix.cycMu.Lock()
	cl.cyc = ix.cyc
	ix.cycMu.Unlock()
	cl.cover.SetRecorder(cl.observeDelta)
	return cl
}

// Warm eagerly builds the derived structures (posting index, cycle
// info) so the first query after a clone or rebuild does not pay the
// construction cost inside a request.
func (ix *Index) Warm() {
	ix.coverIndex()
	ix.cyclic()
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
