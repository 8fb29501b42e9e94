package twohop

import (
	"slices"

	"hopi/internal/graph"
)

// DeltaKind discriminates CoverDelta operations.
type DeltaKind uint8

// CoverDelta kinds. The numeric values are part of the WAL on-disk
// format (storage.WAL) — append new kinds, never renumber.
const (
	// DeltaAddIn inserts Center into Lin(Node) with distance Dist,
	// keeping the smaller distance when the entry already exists.
	DeltaAddIn DeltaKind = 1
	// DeltaAddOut inserts Center into Lout(Node); see DeltaAddIn.
	DeltaAddOut DeltaKind = 2
	// DeltaRemoveIn deletes Center from Lin(Node).
	DeltaRemoveIn DeltaKind = 3
	// DeltaRemoveOut deletes Center from Lout(Node).
	DeltaRemoveOut DeltaKind = 4
	// DeltaGrow extends the cover's node ID space to Node entries
	// (no-op when already that large). Center and Dist are unused.
	DeltaGrow DeltaKind = 5
	// DeltaClearAll drops every label of every node. It is never
	// emitted by recording; a rebuilt-from-scratch cover is logged as
	// DeltaClearAll followed by the full new label set, which keeps a
	// wholesale rebuild replayable through the same op stream as
	// incremental maintenance.
	DeltaClearAll DeltaKind = 6
)

// CoverDelta is one observable label mutation. Every change a
// maintenance operation makes to a recording Cover — entry adds and
// removes on Lin/Lout plus node allocation — is emitted as exactly one
// delta, so replaying the stream with Apply onto a copy of the
// pre-batch state reproduces the post-batch labels byte for byte.
type CoverDelta struct {
	Kind   DeltaKind
	Node   int32 // labeled node; for DeltaGrow the new node count
	Center int32
	Dist   uint32
}

// Recording reports whether a delta recorder is installed. Owners of
// derived structures use this to avoid double maintenance: when a
// recorder is present, its installer is responsible for routing deltas
// onward (core.Index fans them out to the posting index).
func (c *Cover) Recording() bool { return c.rec != nil }

// SetRecorder installs (or, with nil, removes) a callback invoked for
// every effective label mutation. Only changes that actually alter the
// cover are reported: re-adding an existing entry with an equal or
// larger distance, or removing an absent one, emits nothing. Bulk
// builders (Finish, direct In/Out slice writes) bypass recording;
// recording is meant for the maintenance path, which goes through the
// mutator methods below.
//
// Contract: installing a recorder takes over responsibility for ALL
// delta consumers of this cover — in particular, any PostingIndex
// derived from it must receive every delta through the recorder
// (core.Index.observeDelta fans out to the ChangeLog and the
// postings). psg.CoverIndex relies on this: its own AddIn/AddOut skip
// direct posting maintenance whenever Recording() is true.
func (c *Cover) SetRecorder(fn func(CoverDelta)) { c.rec = fn }

func (c *Cover) emit(kind DeltaKind, node, center int32, dist uint32) {
	if c.rec != nil {
		c.rec(CoverDelta{Kind: kind, Node: node, Center: center, Dist: dist})
	}
}

// Apply replays a delta stream onto the cover. Replay is idempotent
// for add/grow operations and order-sensitive across add/remove pairs,
// matching the write-ahead-log recovery contract.
func (c *Cover) Apply(ops []CoverDelta) {
	for _, op := range ops {
		switch op.Kind {
		case DeltaAddIn:
			c.AddIn(op.Node, op.Center, op.Dist)
		case DeltaAddOut:
			c.AddOut(op.Node, op.Center, op.Dist)
		case DeltaRemoveIn:
			c.RemoveIn(op.Node, op.Center)
		case DeltaRemoveOut:
			c.RemoveOut(op.Node, op.Center)
		case DeltaGrow:
			c.Grow(int(op.Node))
		case DeltaClearAll:
			c.clearAll()
		}
	}
}

// clearAll drops every label: the base, the delta lists and the
// tombstones. What is left is an empty cover without a base over the
// same node space, as a rebuild starts from.
func (c *Cover) clearAll() {
	c.base, c.In, c.Out = nil, nil, nil
	c.tombs = [2]map[int32]map[int32]struct{}{}
	c.size, c.delta = 0, 0
	c.shared, c.owned, c.tombsShared = false, [2]graph.Bitset{}, false
}

// SnapshotDeltas flattens the cover's full label set into a replayable
// delta stream: clear everything, grow to the cover's size, then add
// every entry. Durable rebuilds log this instead of an (inexpressible)
// wholesale cover swap.
func (c *Cover) SnapshotDeltas() []CoverDelta {
	ops := []CoverDelta{
		{Kind: DeltaClearAll},
		{Kind: DeltaGrow, Node: int32(c.N())},
	}
	for v := int32(0); v < int32(c.N()); v++ {
		for _, e := range c.Lin(v) {
			ops = append(ops, CoverDelta{Kind: DeltaAddIn, Node: v, Center: e.Center, Dist: e.Dist})
		}
		for _, e := range c.Lout(v) {
			ops = append(ops, CoverDelta{Kind: DeltaAddOut, Node: v, Center: e.Center, Dist: e.Dist})
		}
	}
	return ops
}

// DeltaOps flattens the delta into a replayable op stream over the
// sealed base: grow to the current node space, then per side tombstone
// every removed base entry and add every delta entry (adds and distance
// overrides alike — AddIn/AddOut min-merge, so overrides land exactly).
// Applying the result to a fresh cover over the same sealed base
// reproduces this cover's labels byte for byte. Replication uses this
// to ship only the unsealed residue alongside verbatim segment files.
func (c *Cover) DeltaOps() []CoverDelta {
	ops := []CoverDelta{{Kind: DeltaGrow, Node: int32(c.n)}}
	for s := sideIn; s <= sideOut; s++ {
		tombs := c.tombs[s]
		for _, v := range sortedKeys(tombs) {
			for _, ctr := range sortedSet(tombs[v]) {
				ops = append(ops, CoverDelta{Kind: rmKind[s], Node: v, Center: ctr})
			}
		}
		for v, list := range *c.spine(s) {
			for _, e := range list {
				ops = append(ops, CoverDelta{Kind: addKind[s], Node: int32(v), Center: e.Center, Dist: e.Dist})
			}
		}
	}
	return ops
}

func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedSet(s map[int32]struct{}) []int32 {
	vals := make([]int32, 0, len(s))
	for v := range s {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals
}

// RemoveIn deletes center from Lin(v); a no-op when absent.
func (c *Cover) RemoveIn(v, center int32) { c.remove(sideIn, v, center) }

// RemoveOut deletes center from Lout(u); a no-op when absent.
func (c *Cover) RemoveOut(u, center int32) { c.remove(sideOut, u, center) }

// FilterIn removes every Lin(v) entry whose center drop reports true,
// emitting one remove delta per dropped entry.
func (c *Cover) FilterIn(v int32, drop func(center int32) bool) { c.filter(sideIn, v, drop) }

// FilterOut removes every Lout(u) entry whose center drop reports true.
func (c *Cover) FilterOut(u int32, drop func(center int32) bool) { c.filter(sideOut, u, drop) }

// ClearIn drops all of Lin(v).
func (c *Cover) ClearIn(v int32) { c.filter(sideIn, v, dropAll) }

// ClearOut drops all of Lout(u).
func (c *Cover) ClearOut(u int32) { c.filter(sideOut, u, dropAll) }

func dropAll(int32) bool { return true }

// SetOut replaces Lout(u) wholesale (the Theorem 3 out-label
// replacement). It diffs against the old list and routes each change
// through the mutators: removes for vanished centers, adds for new
// ones, and a remove+add pair when a center survives with a different
// distance — a plain add could not raise a stored distance, since adds
// keep the minimum.
func (c *Cover) SetOut(u int32, entries []Entry) {
	entries = sortDedupe(entries)
	old := slices.Clone(c.Lout(u))
	i, j := 0, 0
	for i < len(old) || j < len(entries) {
		switch {
		case j >= len(entries) || (i < len(old) && old[i].Center < entries[j].Center):
			c.RemoveOut(u, old[i].Center)
			i++
		case i >= len(old) || old[i].Center > entries[j].Center:
			c.AddOut(u, entries[j].Center, entries[j].Dist)
			j++
		default:
			if old[i].Dist != entries[j].Dist {
				c.RemoveOut(u, old[i].Center)
				c.AddOut(u, entries[j].Center, entries[j].Dist)
			}
			i++
			j++
		}
	}
}
