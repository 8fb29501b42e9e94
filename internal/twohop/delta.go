package twohop

import (
	"slices"

	"hopi/internal/graph"
	"hopi/internal/segment"
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
			if c.base != nil {
				// dropping every label drops the sealed base too; the
				// cover reverts to flat mode over the same node space
				// (the follower full-rebuild replay path)
				n := c.nSeg
				c.base = nil
				c.dIn, c.dOut, c.tIn, c.tOut = nil, nil, nil, nil
				c.mapsShared = false
				c.nSeg, c.sizeSeg = 0, 0
				c.In = make([][]Entry, n)
				c.Out = make([][]Entry, n)
				continue
			}
			for i := range c.In {
				c.In[i] = nil
				c.Out[i] = nil
			}
		}
	}
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

// DeltaOps flattens the in-memory delta layer of a segment-mode cover
// into a replayable op stream over the sealed base: grow to the
// current node space, tombstone every removed base entry, add every
// delta entry (adds and distance overrides alike — AddIn/AddOut
// min-merge, so overrides land exactly). Applying the result to a
// fresh cover that adopted the same sealed base reproduces this
// cover's labels byte for byte. Nil in flat mode. Replication uses
// this to ship only the unsealed residue alongside verbatim segment
// files.
func (c *Cover) DeltaOps() []CoverDelta {
	if c.base == nil {
		return nil
	}
	ops := []CoverDelta{{Kind: DeltaGrow, Node: int32(c.nSeg)}}
	emit := func(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}, rm, add DeltaKind) {
		for _, v := range sortedKeys(tombs) {
			for _, ctr := range sortedSet(tombs[v]) {
				ops = append(ops, CoverDelta{Kind: rm, Node: v, Center: ctr})
			}
		}
		for _, v := range sortedKeys(delta) {
			for _, e := range delta[v] {
				ops = append(ops, CoverDelta{Kind: add, Node: v, Center: e.Center, Dist: e.Dist})
			}
		}
	}
	emit(c.dIn, c.tIn, DeltaRemoveIn, DeltaAddIn)
	emit(c.dOut, c.tOut, DeltaRemoveOut, DeltaAddOut)
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
func (c *Cover) RemoveIn(v, center int32) {
	if c.base != nil {
		c.ownIn(v)
		if c.segRemove(c.dIn, c.tIn, segment.FamLin, v, center) {
			c.emit(DeltaRemoveIn, v, center, 0)
		}
		return
	}
	if i := findCenter(c.In[v], center); i >= 0 {
		c.In[v] = c.removeFlat(c.In[v], &c.inOwned, v, i)
		c.emit(DeltaRemoveIn, v, center, 0)
	}
}

// RemoveOut deletes center from Lout(u); a no-op when absent.
func (c *Cover) RemoveOut(u, center int32) {
	if c.base != nil {
		c.ownOut(u)
		if c.segRemove(c.dOut, c.tOut, segment.FamLout, u, center) {
			c.emit(DeltaRemoveOut, u, center, 0)
		}
		return
	}
	if i := findCenter(c.Out[u], center); i >= 0 {
		c.Out[u] = c.removeFlat(c.Out[u], &c.outOwned, u, i)
		c.emit(DeltaRemoveOut, u, center, 0)
	}
}

// FilterIn removes every Lin(v) entry whose center drop reports true,
// emitting one remove delta per dropped entry.
func (c *Cover) FilterIn(v int32, drop func(center int32) bool) {
	if c.base != nil {
		for _, e := range c.Lin(v) {
			if drop(e.Center) {
				c.RemoveIn(v, e.Center)
			}
		}
		return
	}
	c.In[v] = c.filter(DeltaRemoveIn, v, c.In[v], &c.inOwned, drop)
}

// FilterOut removes every Lout(u) entry whose center drop reports true.
func (c *Cover) FilterOut(u int32, drop func(center int32) bool) {
	if c.base != nil {
		for _, e := range c.Lout(u) {
			if drop(e.Center) {
				c.RemoveOut(u, e.Center)
			}
		}
		return
	}
	c.Out[u] = c.filter(DeltaRemoveOut, u, c.Out[u], &c.outOwned, drop)
}

// filter returns list without the entries whose center drop selects,
// emitting one remove delta per dropped entry. It filters in place,
// unless the list may be shared with a clone: then the result goes to
// a fresh slice.
func (c *Cover) filter(kind DeltaKind, node int32, list []Entry, owned *graph.Bitset, drop func(int32) bool) []Entry {
	i := 0
	for i < len(list) && !drop(list[i].Center) {
		i++
	}
	if i == len(list) {
		return list
	}
	out := list[:i]
	if c.claim(owned, node) {
		out = append(make([]Entry, 0, len(list)-1), list[:i]...)
	}
	for _, e := range list[i:] {
		if drop(e.Center) {
			c.emit(kind, node, e.Center, 0)
		} else {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ClearIn drops all of Lin(v).
func (c *Cover) ClearIn(v int32) {
	if c.base != nil {
		for _, e := range c.Lin(v) {
			c.RemoveIn(v, e.Center)
		}
		return
	}
	for _, e := range c.In[v] {
		c.emit(DeltaRemoveIn, v, e.Center, 0)
	}
	c.In[v] = nil
}

// ClearOut drops all of Lout(u).
func (c *Cover) ClearOut(u int32) {
	if c.base != nil {
		for _, e := range c.Lout(u) {
			c.RemoveOut(u, e.Center)
		}
		return
	}
	for _, e := range c.Out[u] {
		c.emit(DeltaRemoveOut, u, e.Center, 0)
	}
	c.Out[u] = nil
}

// SetOut replaces Lout(u) wholesale (the Theorem 3 out-label
// replacement). Deltas are emitted as a diff against the old list:
// removes for vanished centers, adds for new ones, and a remove+add
// pair when a center survives with a different distance — a plain add
// could not raise a stored distance, since adds keep the minimum.
func (c *Cover) SetOut(u int32, entries []Entry) {
	entries = sortDedupe(entries)
	if c.base != nil {
		// Diff against the merged view and route each change through
		// the segment-mode mutators (a remove+add pair can raise a
		// distance: the remove tombstones the base entry first).
		old := append([]Entry(nil), c.Lout(u)...)
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
		return
	}
	old := c.Out[u]
	i, j := 0, 0
	for i < len(old) || j < len(entries) {
		switch {
		case j >= len(entries) || (i < len(old) && old[i].Center < entries[j].Center):
			c.emit(DeltaRemoveOut, u, old[i].Center, 0)
			i++
		case i >= len(old) || old[i].Center > entries[j].Center:
			c.emit(DeltaAddOut, u, entries[j].Center, entries[j].Dist)
			j++
		default:
			if old[i].Dist != entries[j].Dist {
				c.emit(DeltaRemoveOut, u, old[i].Center, 0)
				c.emit(DeltaAddOut, u, entries[j].Center, entries[j].Dist)
			}
			i++
			j++
		}
	}
	if len(entries) == 0 {
		entries = nil
	}
	c.Out[u] = entries
}
