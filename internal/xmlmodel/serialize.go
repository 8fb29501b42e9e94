package xmlmodel

import (
	"encoding/gob"
	"fmt"
	"io"
)

// serialization DTOs — plain exported structs so encoding/gob can
// handle them without exposing the Collection's internals.

type docDTO struct {
	Name       string
	Elements   []Element
	IntraLinks [][2]int32
	Alive      bool
}

type collectionDTO struct {
	Version int
	Docs    []docDTO
	Links   []Link
	// Seq is the maintenance-batch sequence the snapshot corresponds to
	// (durable deployments; zero otherwise). gob tolerates the field's
	// absence, so version 1 files with and without it interdecode.
	Seq uint64
	// Scope is the replication-scope identity of the owning store
	// (durable deployments; zero otherwise) — a random value minted at
	// store creation that resume tokens embed so a token can never be
	// accepted by an unrelated index whose batch sequence happens to
	// match. Absent in older files (gob decodes it as zero; the next
	// checkpoint persists a fresh one).
	Scope uint64
}

const serializeVersion = 1

// Encode writes the collection (including tombstoned documents, whose
// ID ranges must survive) to w.
func (c *Collection) Encode(w io.Writer) error { return c.EncodeWithSeq(w, 0) }

// EncodeWithSeq writes the collection stamped with the maintenance
// batch sequence it reflects; the durable attach mode uses the stamp
// to know which WAL records the snapshot already includes.
func (c *Collection) EncodeWithSeq(w io.Writer, seq uint64) error {
	return c.EncodeWithMeta(w, seq, 0)
}

// EncodeWithMeta writes the collection stamped with its batch sequence
// and replication-scope identity.
func (c *Collection) EncodeWithMeta(w io.Writer, seq, scope uint64) error {
	dto := collectionDTO{Version: serializeVersion, Links: c.Links, Seq: seq, Scope: scope}
	for i, d := range c.Docs {
		dto.Docs = append(dto.Docs, docDTO{
			Name:       d.Name,
			Elements:   d.Elements,
			IntraLinks: d.IntraLinks,
			Alive:      c.alive[i],
		})
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// NewDocumentFromParts reconstructs a document from its serialized
// parts, rebuilding the child lists and anchor map.
func NewDocumentFromParts(name string, elements []Element, intraLinks [][2]int32) *Document {
	d := &Document{
		Name:       name,
		Elements:   elements,
		IntraLinks: intraLinks,
		anchors:    map[string]int32{},
	}
	d.Children = make([][]int32, len(d.Elements))
	for i, e := range d.Elements {
		if e.Parent >= 0 {
			d.Children[e.Parent] = append(d.Children[e.Parent], int32(i))
		}
		if e.Anchor != "" {
			d.anchors[e.Anchor] = int32(i)
		}
	}
	return d
}

// DecodeCollection reads a collection written by Encode.
func DecodeCollection(r io.Reader) (*Collection, error) {
	c, _, err := DecodeCollectionSeq(r)
	return c, err
}

// DecodeCollectionSeq reads a collection plus its batch-sequence stamp
// (zero for files written without one).
func DecodeCollectionSeq(r io.Reader) (*Collection, uint64, error) {
	c, seq, _, err := DecodeCollectionMeta(r)
	return c, seq, err
}

// DecodeCollectionMeta reads a collection plus its batch-sequence and
// replication-scope stamps (zero for files written without them).
func DecodeCollectionMeta(r io.Reader) (*Collection, uint64, uint64, error) {
	var dto collectionDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, 0, 0, fmt.Errorf("xmlmodel: decode collection: %w", err)
	}
	if dto.Version != serializeVersion {
		return nil, 0, 0, fmt.Errorf("xmlmodel: unsupported collection version %d", dto.Version)
	}
	c := NewCollection()
	for _, dd := range dto.Docs {
		d := NewDocumentFromParts(dd.Name, dd.Elements, dd.IntraLinks)
		idx := c.AddDocument(d)
		if !dd.Alive {
			// restore the tombstone without disturbing ID assignment
			c.alive[idx] = false
			if d.Name != "" {
				delete(c.byName, d.Name)
			}
		}
	}
	c.Links = dto.Links
	for _, l := range c.Links {
		fd, fl := c.LocalID(l.From)
		td, tl := c.LocalID(l.To)
		c.addArcs(fd, fl, td, tl)
	}
	return c, dto.Seq, dto.Scope, nil
}
