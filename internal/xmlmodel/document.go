// Package xmlmodel implements the paper's formal model (§2): XML
// documents as element-level trees T_E(d) with intra-document links
// L_I(d), collections X = (D, L) with inter-document links, the
// element-level graph G_E(X), and the document-level graph G_D(X).
//
// Element identity is positional: every element of every document in a
// collection gets a stable global int32 ID (assignment order, never
// reused), which is what the HOPI cover labels refer to. Ordering of
// children is recorded (pre/postorder ranks) only to derive
// ancestor/descendant counts for the §4.3 edge weights — the index
// itself deliberately ignores document order, as the paper argues.
package xmlmodel

import (
	"fmt"
	"slices"
)

// Element is one XML element of a document.
type Element struct {
	Tag    string
	Parent int32  // local index of the parent element, -1 for the root
	Pre    int32  // preorder rank within the document tree
	Post   int32  // postorder rank within the document tree
	Anchor string // value of an id/xml:id attribute, "" if none
}

// Document is the element-level tree of a single XML document plus its
// intra-document links (the paper's T_E(d) and L_I(d)).
type Document struct {
	Name     string
	Elements []Element
	Children [][]int32
	// IntraLinks holds local (from, to) element index pairs for
	// ID/IDREF and same-document href links.
	IntraLinks [][2]int32

	anchors map[string]int32
	sealed  bool
}

// NewDocument creates a document with a single root element.
func NewDocument(name, rootTag string) *Document {
	d := &Document{Name: name, anchors: map[string]int32{}}
	d.Elements = append(d.Elements, Element{Tag: rootTag, Parent: -1})
	d.Children = append(d.Children, nil)
	return d
}

// Len returns the number of elements.
func (d *Document) Len() int { return len(d.Elements) }

// Clone returns a deep copy of the document, for a caller that keeps
// it apart from every collection (a log record, another shard).
func (d *Document) Clone() *Document {
	cp := &Document{
		Name:     d.Name,
		Elements: append([]Element(nil), d.Elements...),
		Children: make([][]int32, len(d.Children)),
		anchors:  make(map[string]int32, len(d.anchors)),
		sealed:   d.sealed,
	}
	for i, kids := range d.Children {
		cp.Children[i] = append([]int32(nil), kids...)
	}
	if len(d.IntraLinks) > 0 {
		cp.IntraLinks = append([][2]int32(nil), d.IntraLinks...)
	}
	for id, local := range d.anchors {
		cp.anchors[id] = local
	}
	return cp
}

// withOwnLinks returns a copy of d that shares everything but its
// intra-link list — the one part of a document in a collection that
// maintenance edits (Collection.AddLink, RemoveLink).
func (d *Document) withOwnLinks() *Document {
	cp := *d
	cp.IntraLinks = slices.Clone(d.IntraLinks)
	return &cp
}

// AddElement appends a child element under parent and returns its local
// index.
func (d *Document) AddElement(parent int32, tag string) int32 {
	id := int32(len(d.Elements))
	d.Elements = append(d.Elements, Element{Tag: tag, Parent: parent})
	d.Children = append(d.Children, nil)
	d.Children[parent] = append(d.Children[parent], id)
	d.sealed = false
	return id
}

// SetAnchor registers an id/xml:id anchor on a local element so links
// can target it by name.
func (d *Document) SetAnchor(local int32, id string) {
	d.Elements[local].Anchor = id
	d.anchors[id] = local
}

// AnchorElement resolves an anchor id to a local element index.
func (d *Document) AnchorElement(id string) (int32, bool) {
	local, ok := d.anchors[id]
	return local, ok
}

// AddIntraLink records an intra-document link between two local
// elements (an ID/IDREF pair or an href="#id").
func (d *Document) AddIntraLink(from, to int32) {
	d.IntraLinks = append(d.IntraLinks, [2]int32{from, to})
}

// Seal computes pre/postorder ranks. It is idempotent; adding the
// document to a collection seals it.
func (d *Document) Seal() {
	if d.sealed {
		return
	}
	pre, post := int32(0), int32(0)
	type frame struct {
		node int32
		kid  int
	}
	stack := []frame{{node: 0}}
	d.Elements[0].Pre = pre
	pre++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := d.Children[f.node]
		if f.kid < len(kids) {
			c := kids[f.kid]
			f.kid++
			d.Elements[c].Pre = pre
			pre++
			stack = append(stack, frame{node: c})
			continue
		}
		d.Elements[f.node].Post = post
		post++
		stack = stack[:len(stack)-1]
	}
	d.sealed = true
}

// IsTreeAncestor reports whether element a is a (proper or equal)
// ancestor of element b in the document tree: by the pre/post interval
// property on a sealed document, by walking b's parent chain on an
// unsealed one. It only reads d, so concurrent readers of a document
// shared between collections never race.
func (d *Document) IsTreeAncestor(a, b int32) bool {
	if !d.sealed {
		for ; b >= 0; b = d.Elements[b].Parent {
			if b == a {
				return true
			}
		}
		return false
	}
	ea, eb := d.Elements[a], d.Elements[b]
	return ea.Pre <= eb.Pre && ea.Post >= eb.Post
}

// Depth returns the number of proper tree ancestors of the element.
func (d *Document) Depth(local int32) int {
	depth := 0
	for p := d.Elements[local].Parent; p >= 0; p = d.Elements[p].Parent {
		depth++
	}
	return depth
}

// AncCount returns the paper's anc(x): the number of ancestors of x in
// the element-level tree, counting x itself (Fig. 5 annotates the root
// with anc = 1).
func (d *Document) AncCount(local int32) int { return d.Depth(local) + 1 }

// SubtreeSize returns the number of elements in the subtree rooted at
// local, including local itself — the paper's desc(x).
func (d *Document) SubtreeSize(local int32) int {
	size := 0
	stack := []int32{local}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		stack = append(stack, d.Children[v]...)
	}
	return size
}

// Validate checks structural invariants (parent pointers, link ranges).
func (d *Document) Validate() error {
	for i, e := range d.Elements {
		if i == 0 {
			if e.Parent != -1 {
				return fmt.Errorf("xmlmodel: root of %q has parent %d", d.Name, e.Parent)
			}
			continue
		}
		if e.Parent < 0 || int(e.Parent) >= len(d.Elements) {
			return fmt.Errorf("xmlmodel: element %d of %q has bad parent %d", i, d.Name, e.Parent)
		}
		if e.Parent >= int32(i) {
			return fmt.Errorf("xmlmodel: element %d of %q has forward parent %d", i, d.Name, e.Parent)
		}
	}
	for _, l := range d.IntraLinks {
		for _, v := range l {
			if v < 0 || int(v) >= len(d.Elements) {
				return fmt.Errorf("xmlmodel: intra link %v of %q out of range", l, d.Name)
			}
		}
	}
	return nil
}
