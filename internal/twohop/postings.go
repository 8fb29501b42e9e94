package twohop

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// PostingIndex is the center→owners inverted index of a 2-hop cover:
// for every center c, InOwners(c) lists the nodes whose Lin contains c
// and OutOwners(c) the nodes whose Lout contains c, each as a sorted
// posting list. This is the §3.4 backward index on LIN/LOUT promoted to
// a first-class structure: the old join, link insertion, cover-based
// ancestor and descendant queries, and the watch path's delta
// re-evaluation read it, and incremental maintenance keeps the postings
// warm by replaying the same CoverDelta stream the WAL records.
//
// Like Cover, the postings are the sealed base's owners, plus the
// delta's owners, minus masked base owners that were removed; reads
// merge the three sorted lists, and return the delta list itself when
// the base and the mask have nothing for the center. A mask is only
// written for an owner the base holds, so without a base no read
// merges. An owner is never in both the delta and the mask of one
// center.
//
// Sharing: Share returns an immutable view of the current postings and
// freezes the receiver's maps; the first mutation of a map after a
// Share copies it (slice headers only) and then copies individual
// posting lists on demand. Snapshots use this to reuse the live index's
// postings instead of re-deriving them from the full label set.
type PostingIndex struct {
	n    int
	base *Base
	// add and neg hold, per side, the delta owners and the masked
	// base owners of each center.
	add, neg [2]owners
}

// owners is one center → sorted owners map, copy-on-write across
// Share: frozen marks the map as shared with an immutable view, and
// owned the centers whose lists this instance has copied since (nil:
// every list is owned, the fresh state).
type owners struct {
	m      map[int32][]int32
	frozen bool
	owned  map[int32]bool
}

// NewPostingIndex scans a cover's delta lists and tombstones and builds
// the postings over the same base. The result owns all its slices.
func NewPostingIndex(cov *Cover) *PostingIndex {
	p := &PostingIndex{n: cov.N(), base: cov.base}
	for s := sideIn; s <= sideOut; s++ {
		// owners are visited in ascending node order, so every posting
		// list comes out sorted without a final sort pass
		add := map[int32][]int32{}
		for v, list := range *cov.spine(s) {
			for _, e := range list {
				add[e.Center] = append(add[e.Center], int32(v))
			}
		}
		neg := map[int32][]int32{}
		for _, v := range sortedKeys(cov.tombs[s]) {
			for c := range cov.tombs[s][v] {
				neg[c] = append(neg[c], v)
			}
		}
		p.add[s].m, p.neg[s].m = add, neg
	}
	return p
}

// Rebase points the posting index at a freshly sealed base that folds
// the current delta, and empties the delta maps. Shared views keep the
// old base and maps.
func (p *PostingIndex) Rebase(b *Base) {
	p.base = b
	p.add, p.neg = [2]owners{}, [2]owners{}
}

// N returns the node-ID space the postings are defined over.
func (p *PostingIndex) N() int { return p.n }

// InOwners returns the sorted nodes whose Lin contains center. The
// slice is shared — callers must not mutate it. With no sealed owner
// of the center (and so no mask) it is the delta list, with no merge.
func (p *PostingIndex) InOwners(center int32) []int32 {
	base := p.base.InOwners(center)
	if len(base) == 0 {
		return p.add[sideIn].m[center]
	}
	return mergeOwners(base, p.add[sideIn].m[center], p.neg[sideIn].m[center])
}

// OutOwners returns the sorted nodes whose Lout contains center; see
// InOwners.
func (p *PostingIndex) OutOwners(center int32) []int32 {
	base := p.base.OutOwners(center)
	if len(base) == 0 {
		return p.add[sideOut].m[center]
	}
	return mergeOwners(base, p.add[sideOut].m[center], p.neg[sideOut].m[center])
}

// mergeOwners computes (base ∖ neg) ∪ add over three sorted lists.
func mergeOwners(base, add, neg []int32) []int32 {
	if len(add) == 0 && len(neg) == 0 {
		return base
	}
	out := make([]int32, 0, len(base)+len(add))
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(add) {
		var v int32
		switch {
		case i >= len(base):
			v = add[j]
			j++
		case j >= len(add):
			v = base[i]
			i++
		case base[i] < add[j]:
			v = base[i]
			i++
		case base[i] > add[j]:
			v = add[j]
			j++
		default: // same owner in base and delta (distance override)
			v = base[i]
			i++
			j++
		}
		for k < len(neg) && neg[k] < v {
			k++
		}
		if k < len(neg) && neg[k] == v {
			// masked base owner; a delta re-add would have removed the
			// mask, so v cannot come from add here
			continue
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Share returns an immutable view of the current postings. Both the
// receiver and the view keep reading the same maps; the receiver's next
// mutation copies before writing, so the view observes the postings
// exactly as they were at Share time, forever. Callers must serialize
// Share against mutations (maintenance is single-writer).
func (p *PostingIndex) Share() *PostingIndex {
	v := &PostingIndex{n: p.n, base: p.base}
	for s := range p.add {
		v.add[s], v.neg[s] = p.add[s].share(), p.neg[s].share()
	}
	return v
}

func (o *owners) share() owners {
	o.frozen, o.owned = true, nil
	return owners{m: o.m, frozen: true}
}

// Apply maintains the postings under one cover label delta — the same
// stream the ChangeLog records and the WAL replays. Add deltas are
// idempotent (a distance improvement re-emits an add for an owner that
// is already posted); removes of absent owners are no-ops.
func (p *PostingIndex) Apply(d CoverDelta) {
	switch d.Kind {
	case DeltaAddIn, DeltaAddOut:
		s := side(d.Kind - DeltaAddIn)
		p.neg[s].remove(d.Center, d.Node)
		p.add[s].insert(d.Center, d.Node)
	case DeltaRemoveIn, DeltaRemoveOut:
		s := side(d.Kind - DeltaRemoveIn)
		p.add[s].remove(d.Center, d.Node)
		if _, sealed := p.base.look(s, d.Node, d.Center); sealed {
			p.neg[s].insert(d.Center, d.Node)
		}
	case DeltaGrow:
		p.n = max(p.n, int(d.Node))
	case DeltaClearAll:
		// shared views keep the old maps; this instance starts over
		// with fresh, fully owned ones
		*p = PostingIndex{n: p.n}
	}
}

// thaw makes a frozen map writable again: copy it (slice headers only)
// and start tracking which lists this instance owns.
func (o *owners) thaw() {
	if o.m == nil {
		o.m = map[int32][]int32{}
	}
	if o.frozen {
		o.m, o.frozen, o.owned = maps.Clone(o.m), false, map[int32]bool{}
	}
}

// own reports whether this instance may write center's list in place,
// and marks it owned: the caller writes a fresh slice if not.
func (o *owners) own(center int32) bool {
	if o.owned == nil || o.owned[center] {
		return true
	}
	o.owned[center] = true
	return false
}

// insert adds owner to the sorted posting of center (no-op when
// present), honoring copy-on-write for lists borrowed from a view.
func (o *owners) insert(center, owner int32) {
	list := o.m[center]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= owner })
	if i < len(list) && list[i] == owner {
		return
	}
	o.thaw()
	if o.own(center) {
		list = slices.Insert(list, i, owner)
	} else {
		list = slices.Concat(list[:i], []int32{owner}, list[i:])
	}
	o.m[center] = list
}

// remove deletes owner from the posting of center (no-op when absent).
func (o *owners) remove(center, owner int32) {
	list := o.m[center]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= owner })
	if i >= len(list) || list[i] != owner {
		return
	}
	o.thaw()
	switch {
	case len(list) == 1:
		delete(o.m, center)
		return
	case o.own(center):
		list = slices.Delete(list, i, i+1)
	default:
		list = slices.Concat(list[:i], list[i+1:])
	}
	o.m[center] = list
}

// Equal verifies that two posting indexes answer InOwners and OutOwners
// identically for every center in [0, N), returning a descriptive error
// for the first difference. Used by the maintenance-invariant tests
// (incrementally maintained == derived from scratch), with or without a
// base.
func (p *PostingIndex) Equal(o *PostingIndex) error {
	if p.n != o.n {
		return fmt.Errorf("twohop: postings over %d vs %d nodes", p.n, o.n)
	}
	for c := int32(0); c < int32(p.n); c++ {
		if a, b := p.InOwners(c), o.InOwners(c); !slices.Equal(a, b) {
			return fmt.Errorf("twohop: InOwners(%d) = %v vs %v", c, a, b)
		}
		if a, b := p.OutOwners(c), o.OutOwners(c); !slices.Equal(a, b) {
			return fmt.Errorf("twohop: OutOwners(%d) = %v vs %v", c, a, b)
		}
	}
	return nil
}
