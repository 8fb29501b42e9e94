// Package graph provides the directed-graph primitives that the HOPI
// index is built on: compact bitsets, a dense-index digraph, strongly
// connected components, transitive closures, and distance closures:
// closures that keep one shortest-path length per connection beside
// their reach bits.
//
// All algorithms work on dense node indices in [0, n). Mapping between
// these indices and global element IDs is the caller's concern; keeping
// the package index-based lets closures and reachability sets be stored
// as flat bitsets.
package graph

import "math/bits"

const wordBits = 64

// Bitset is a fixed-capacity set of small non-negative integers backed
// by a []uint64. The zero value is an empty set of capacity zero; use
// NewBitset to allocate capacity up front.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) Bitset {
	return make(Bitset, (n+wordBits-1)/wordBits)
}

// Set adds i to the set. i must be within capacity.
func (b Bitset) Set(i int) { b[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear removes i from the set.
func (b Bitset) Clear(i int) { b[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Grow returns a set with b's elements able to hold values in [0, n).
// It reuses b when b is already large enough.
func (b Bitset) Grow(n int) Bitset {
	if w := (n + wordBits - 1) / wordBits; w > len(b) {
		return append(b, make(Bitset, w-len(b))...)
	}
	return b
}

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool {
	w := i / wordBits
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%wordBits)) != 0
}

// Or sets b to the union of b and other. The sets must have the same
// capacity (as produced by NewBitset with the same n).
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// AndNot removes every element of other from b.
func (b Bitset) AndNot(other Bitset) {
	n := len(other)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		b[i] &^= other[i]
	}
}

// And sets b to the intersection of b and other.
func (b Bitset) And(other Bitset) {
	for i := range b {
		if i < len(other) {
			b[i] &= other[i]
		} else {
			b[i] = 0
		}
	}
}

// Intersects reports whether b and other share at least one element.
func (b Bitset) Intersects(other Bitset) bool {
	n := len(b)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if b[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |b ∩ other|.
func (b Bitset) IntersectionCount(other Bitset) int {
	n := len(b)
	if len(other) < n {
		n = len(other)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & other[i])
	}
	return c
}

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Reset removes all elements, keeping capacity.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops early.
func (b Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements appends all members in ascending order to dst and returns it.
func (b Bitset) Elements(dst []int32) []int32 {
	for wi, w := range b {
		for w != 0 {
			dst = append(dst, int32(wi*wordBits+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
