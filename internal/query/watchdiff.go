// Delta-seeded incremental re-evaluation for live queries (watch
// subscriptions). Instead of re-running a query after every
// maintenance batch, DiffEval starts from the batch's WatchDelta
// summary, derives the set of elements whose result membership can
// have changed, and re-tests exactly those against the before/after
// engines — O(delta · reach), not O(query).
//
// The per-candidate membership test walks the candidate's ancestors
// over the collection's own edges and stops at the first one in the
// first step's frontier F: v matches iff some f ∈ F has a path of
// length ≥ 1 to v, which covers the tree path, a link path, and v's
// own cycle back to itself (the walk reaches v again). The affected set
// is seeded from the delta: elements added/removed or with a changed
// Lin can change their own membership; a frontier element that
// appeared, disappeared, or changed its Lout can change the membership
// of every element it reaches — its descendants, walked on both the old
// and the new engine so vanished reachability is caught too.
package query

import (
	"hopi/internal/core"
)

// DiffEval incrementally computes the exact result-set delta of q
// between prev and e (the engine of the *newer* snapshot), seeded by
// the merged batch summary d. inPrev reports membership in the
// caller's stored result set (which must be exact for prev). The
// returned add/remove element lists are sorted ascending.
//
// ok is false when the combination of query shape and delta kind
// requires a full re-evaluation: the summary is Full (rebuild /
// ClearAll), the query has more than two steps or a child-axis final
// step after the first, or topology changed (d.Struct) while the
// query can self-match — cycle membership is not tracked by cover
// deltas, so a structural change can silently flip a self-match.
func (e *Engine) DiffEval(prev *Engine, q *Query, d *core.WatchDelta, inPrev func(int32) bool) (add, remove []int32, ok bool) {
	if d.Full || len(q.Steps) == 0 || len(q.Steps) > 2 {
		return nil, nil, false
	}
	first := q.Steps[0]
	last := q.Steps[len(q.Steps)-1]
	twoStep := len(q.Steps) == 2
	if twoStep {
		if last.Axis != AxisDescendant {
			return nil, nil, false
		}
		if d.Struct && (first.Tag == last.Tag || first.Tag == "*" || last.Tag == "*") {
			return nil, nil, false
		}
	}

	member := func(v int32) bool { return e.stepMember(first, v) }
	if twoStep {
		member = func(v int32) bool {
			return e.stepMember(last, v) && e.reachableFromFrontier(first, v)
		}
	}

	affected := map[int32]struct{}{}
	nowCand := e.candidateBits(last.Tag)
	wasCand := prev.candidateBits(last.Tag)
	mark := func(v int32) {
		if nowCand.Has(int(v)) || wasCand.Has(int(v)) {
			affected[v] = struct{}{}
		}
	}
	for _, v := range d.Added {
		mark(v)
	}
	for _, v := range d.Removed {
		mark(v)
	}
	if twoStep {
		// candidates whose Lin changed may have gained/lost reachability
		for _, v := range d.LinChanged {
			mark(v)
		}
		// frontier elements that appeared, disappeared, or changed their
		// Lout: everything they contribute(d) is suspect, on both sides
		seen := map[int32]struct{}{}
		markFrontier := func(f int32) {
			if _, dup := seen[f]; dup {
				return
			}
			seen[f] = struct{}{}
			if prev.stepMember(first, f) {
				prev.contribute(f, mark)
			}
			if e.stepMember(first, f) {
				e.contribute(f, mark)
			}
		}
		for _, f := range d.LoutChanged {
			markFrontier(f)
		}
		for _, f := range d.Added {
			markFrontier(f)
		}
		for _, f := range d.Removed {
			markFrontier(f)
		}
	}

	for v := range affected {
		now := member(v)
		was := inPrev(v)
		switch {
		case now && !was:
			add = append(add, v)
		case was && !now:
			remove = append(remove, v)
		}
	}
	add = sortIDs(add)
	remove = sortIDs(remove)
	return add, remove, true
}

func sortIDs(s []int32) []int32 {
	if len(s) > 1 {
		for i := 1; i < len(s); i++ { // insertion sort: deltas are tiny
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	return s
}

// stepMember reports whether v satisfies a location step's own test:
// tag match on a live element, plus document-root for a child-axis
// first step. Out-of-range and tombstoned IDs answer false.
func (e *Engine) stepMember(s Step, v int32) bool {
	if v < 0 || !e.candidateBits(s.Tag).Has(int(v)) {
		return false
	}
	return s.Axis != AxisChild || e.isRoot(v)
}

// reachableFromFrontier reports whether some element of the first
// step's frontier reaches v over a path of length ≥ 1: an ancestor
// walk from v that stops at the first frontier element.
func (e *Engine) reachableFromFrontier(first Step, v int32) bool {
	for a := range e.ix.Collection().Walk(v, true) {
		if e.stepMember(first, a) {
			return true
		}
	}
	return false
}

// contribute enumerates every element whose final-step membership can
// depend on frontier element f: every element f reaches over a path of
// length ≥ 1, f itself when it lies on a cycle.
func (e *Engine) contribute(f int32, emit func(int32)) {
	for d := range e.ix.Collection().Walk(f, false) {
		emit(d)
	}
}
