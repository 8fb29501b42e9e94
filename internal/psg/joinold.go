package psg

import (
	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// JoinOld merges partition covers with the original HOPI algorithm
// (§3.3): start from the union of the partition covers and integrate
// the cross-partition links one at a time. For each link u→v, v
// becomes the center of all newly created connections: v is added to
// Lout of u and of all current ancestors of u, and to Lin of all
// current descendants of v. Ancestors and descendants are computed
// against the cover built so far, which is what makes this algorithm
// quadratic-ish and slow — the motivation for §4.1.
//
// This is also exactly the procedure used to insert a single new edge
// or document during incremental maintenance (§6.1), which is why
// IntegrateLink is exported.
func JoinOld(c *xmlmodel.Collection, cross []xmlmodel.Link, parts []*PartitionData, withDist bool) *twohop.Cover {
	global := unionPartitionCovers(c, parts, withDist)
	global.Finish()
	ix := NewCoverIndex(global)
	for _, l := range cross {
		ix.IntegrateLink(l.From, l.To)
	}
	return ix.Cover()
}

// CoverIndex pairs a cover with the center→owners posting index — the
// backward indexes the §3.4 database deployment keeps on LIN and LOUT.
// The postings make cover-based ancestor/descendant queries and the
// set-at-a-time descendant-axis semijoin feasible; both the old join
// and incremental maintenance depend on them.
type CoverIndex struct {
	cov  *twohop.Cover
	post *twohop.PostingIndex
	// scratch pools the visited bitsets of Ancestors/Descendants so the
	// read path allocates nothing in steady state yet stays safe under
	// concurrent readers (snapshot queries run in parallel).
	scratch *graph.BitsetPool
}

// NewCoverIndex builds the posting index of an existing cover.
func NewCoverIndex(cov *twohop.Cover) *CoverIndex {
	return newCoverIndex(cov, twohop.NewPostingIndex(cov))
}

func newCoverIndex(cov *twohop.Cover, post *twohop.PostingIndex) *CoverIndex {
	return &CoverIndex{
		cov:     cov,
		post:    post,
		scratch: graph.NewBitsetPool(cov.N()),
	}
}

// ShareFor returns a CoverIndex over an immutable view of the postings
// (see twohop.PostingIndex.Share), reading labels from cov — a clone of
// the cover the postings were derived from. Snapshots use this to
// reuse the live index's postings instead of rebuilding them per
// clone.
func (ix *CoverIndex) ShareFor(cov *twohop.Cover) *CoverIndex {
	return newCoverIndex(cov, ix.post.Share())
}

// Cover returns the wrapped cover.
func (ix *CoverIndex) Cover() *twohop.Cover { return ix.cov }

// Postings returns the posting index (read-only use).
func (ix *CoverIndex) Postings() *twohop.PostingIndex { return ix.post }

// ApplyDelta maintains the postings under one cover label mutation.
// The cover itself has already applied the delta; this keeps the
// backward index in lockstep (core.Index routes every recorded delta
// here so maintenance keeps the postings warm instead of invalidating
// them).
func (ix *CoverIndex) ApplyDelta(d twohop.CoverDelta) { ix.post.Apply(d) }

// AddOut inserts a label entry and maintains the postings. When a
// delta recorder is installed on the cover its owner routes the delta
// back into ApplyDelta (core.Index does this for maintenance), so the
// postings are only updated directly in the recorder-less standalone
// case (JoinOld, tests) — never twice. Size() moves on every new entry;
// the only change it misses, a distance improvement, leaves the owner
// already posted.
func (ix *CoverIndex) AddOut(u, center int32, dist uint32) {
	before := ix.cov.Size()
	ix.cov.AddOut(u, center, dist)
	if ix.cov.Size() != before && !ix.cov.Recording() {
		ix.post.Apply(twohop.CoverDelta{Kind: twohop.DeltaAddOut, Node: u, Center: center})
	}
}

// AddIn inserts a label entry and maintains the postings; see AddOut
// for the recorder contract.
func (ix *CoverIndex) AddIn(v, center int32, dist uint32) {
	before := ix.cov.Size()
	ix.cov.AddIn(v, center, dist)
	if ix.cov.Size() != before && !ix.cov.Recording() {
		ix.post.Apply(twohop.CoverDelta{Kind: twohop.DeltaAddIn, Node: v, Center: center})
	}
}

// Ancestors returns all nodes a (including u itself) with a →* u
// according to the cover, using the postings: a reaches u iff a == u,
// u ∈ Lout(a), a ∈ Lin(u), or Lout(a) ∩ Lin(u) ≠ ∅.
func (ix *CoverIndex) Ancestors(u int32) []int32 {
	// sized per call: the node-ID space grows under document insertion
	// while the index stays warm
	seen := ix.scratch.Get(ix.cov.N())
	defer ix.scratch.Put(seen)
	var out []int32
	add := func(a int32) {
		if !seen.Has(int(a)) {
			seen.Set(int(a))
			out = append(out, a)
		}
	}
	add(u)
	for _, a := range ix.post.OutOwners(u) {
		add(a)
	}
	for _, e := range ix.cov.Lin(u) {
		add(e.Center)
		for _, a := range ix.post.OutOwners(e.Center) {
			add(a)
		}
	}
	return out
}

// Descendants returns all nodes d (including v itself) with v →* d
// according to the cover.
func (ix *CoverIndex) Descendants(v int32) []int32 {
	seen := ix.scratch.Get(ix.cov.N())
	defer ix.scratch.Put(seen)
	var out []int32
	add := func(d int32) {
		if !seen.Has(int(d)) {
			seen.Set(int(d))
			out = append(out, d)
		}
	}
	add(v)
	for _, d := range ix.post.InOwners(v) {
		add(d)
	}
	for _, e := range ix.cov.Lout(v) {
		add(e.Center)
		for _, d := range ix.post.InOwners(e.Center) {
			add(d)
		}
	}
	return out
}

// IntegrateLink adds the edge u→v to the cover (Fig. 2): v becomes the
// center for all new connections from ancestors of u to descendants of
// v. For distance-aware covers the label distances are dist(a,u)+1 on
// the Lout side and dist(v,d) on the Lin side; existing entries remain
// valid because the query takes the minimum over centers and the new
// edge cannot shorten paths into u or out of v.
func (ix *CoverIndex) IntegrateLink(u, v int32) {
	ancs := ix.Ancestors(u)
	descs := ix.Descendants(v)
	if ix.cov.WithDist {
		// snapshot distances before mutating the labels
		ad, dd := ix.linkDistances(u, v, ancs, descs)
		for i, a := range ancs {
			if ad[i] != graph.InfDist {
				ix.AddOut(a, v, ad[i]+1)
			}
		}
		for i, d := range descs {
			if dd[i] != graph.InfDist {
				ix.AddIn(d, v, dd[i])
			}
		}
		return
	}
	for _, a := range ancs {
		ix.AddOut(a, v, 0)
	}
	for _, d := range descs {
		ix.AddIn(d, v, 0)
	}
}

// linkDistances returns dist(a, u) for every a in ancs and dist(v, d)
// for every d in descs. Each loop holds its fixed side — Lin(u), then
// Lout(v) — and reads the varying side through one reused buffer, so on
// a cover over a sealed base it allocates the same whatever the
// fan-out.
func (ix *CoverIndex) linkDistances(u, v int32, ancs, descs []int32) (ad, dd []uint32) {
	var buf []twohop.Entry
	ad = make([]uint32, len(ancs))
	linU := ix.cov.Lin(u)
	for i, a := range ancs {
		ad[i] = twohop.ListDistance(a, ix.cov.LoutBuf(a, &buf), u, linU)
	}
	dd = make([]uint32, len(descs))
	loutV := ix.cov.Lout(v)
	for i, d := range descs {
		dd[i] = twohop.ListDistance(v, loutV, d, ix.cov.LinBuf(d, &buf))
	}
	return ad, dd
}
