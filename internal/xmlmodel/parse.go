package xmlmodel

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// PendingLink is a link found during parsing whose target lives in
// another document; it is resolved once all documents are loaded.
type PendingLink struct {
	FromLocal int32
	TargetDoc string
	Anchor    string
}

// ParseDocument parses one XML document into the element-level model.
// Recognized attributes:
//
//   - id / xml:id            — registers an anchor on the element
//   - idref                  — intra-document link to the anchored element
//   - href / xlink:href      — "#id" is an intra-document link;
//     "doc.xml#id" or "doc.xml" is an inter-document link returned as
//     a PendingLink for later resolution
//
// Character data is ignored: HOPI indexes structure, not content.
func ParseDocument(name string, data []byte) (*Document, []PendingLink, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var (
		doc     *Document
		stack   []int32
		pending []PendingLink
		idrefs  []struct {
			from int32
			id   string
		}
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("xmlmodel: parse %q: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var local int32
			if doc == nil {
				doc = NewDocument(name, t.Name.Local)
				local = 0
			} else {
				if len(stack) == 0 {
					return nil, nil, fmt.Errorf("xmlmodel: %q has multiple roots", name)
				}
				local = doc.AddElement(stack[len(stack)-1], t.Name.Local)
			}
			for _, a := range t.Attr {
				key := strings.ToLower(a.Name.Local)
				switch key {
				case "id":
					doc.SetAnchor(local, a.Value)
				case "idref":
					idrefs = append(idrefs, struct {
						from int32
						id   string
					}{local, a.Value})
				case "href":
					target, anchor := splitHref(a.Value)
					if target == "" && anchor != "" {
						idrefs = append(idrefs, struct {
							from int32
							id   string
						}{local, anchor})
					} else if target != "" {
						pending = append(pending, PendingLink{FromLocal: local, TargetDoc: target, Anchor: anchor})
					}
				}
			}
			stack = append(stack, local)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, nil, fmt.Errorf("xmlmodel: %q has unbalanced end tag", name)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if doc == nil {
		return nil, nil, fmt.Errorf("xmlmodel: %q contains no elements", name)
	}
	if len(stack) != 0 {
		return nil, nil, fmt.Errorf("xmlmodel: %q has unclosed elements", name)
	}
	for _, r := range idrefs {
		to, ok := doc.AnchorElement(r.id)
		if !ok {
			return nil, nil, fmt.Errorf("xmlmodel: %q references unknown id %q", name, r.id)
		}
		doc.AddIntraLink(r.from, to)
	}
	doc.Seal()
	return doc, pending, nil
}

func splitHref(v string) (target, anchor string) {
	if i := strings.IndexByte(v, '#'); i >= 0 {
		return v[:i], v[i+1:]
	}
	return v, ""
}

// ParseDir parses the .xml files of a directory (not its
// subdirectories), each named by its file name, as one collection.
func ParseDir(dir string) (*Collection, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".xml" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .xml files in %s", dir)
	}
	return ParseCollection(files)
}

// ParseCollection parses a set of named XML documents and resolves all
// cross-document links. Links to documents outside the set are dropped
// (the paper's model only contains links within the collection).
func ParseCollection(files map[string][]byte) (*Collection, error) {
	c := NewCollection()
	type docPending struct {
		doc     int
		pending []PendingLink
	}
	var all []docPending
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc, pending, err := ParseDocument(name, files[name])
		if err != nil {
			return nil, err
		}
		idx := c.AddDocument(doc)
		all = append(all, docPending{doc: idx, pending: pending})
	}
	for _, dp := range all {
		for _, p := range dp.pending {
			if _, ok := c.DocByName(p.TargetDoc); !ok {
				continue // external link, outside the collection
			}
			if err := c.AddLinkByAnchor(dp.doc, p.FromLocal, p.TargetDoc, p.Anchor); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// WriteCollectionXML serializes every live document of a collection to
// XML, materializing inter-document links as <link href="doc#anchor"/>
// children of the link source. Parsing the result with ParseCollection
// yields a collection with the same documents and links (plus one
// extra element per link, which carries the link instead of its
// parent). Generators use this to emit real XML corpora for the cmd
// tools.
func WriteCollectionXML(c *Collection) map[string][]byte {
	// Give every inter-document link target an anchor and hand the
	// per-document serializer the outgoing links.
	interFrom := map[int]map[int32][]string{} // doc → local → hrefs
	for _, l := range c.Links {
		fd, fl := c.LocalID(l.From)
		td, tl := c.LocalID(l.To)
		target := c.Docs[td]
		anchor := target.Elements[tl].Anchor
		if anchor == "" && tl != 0 {
			anchor = fmt.Sprintf("x%d", tl)
			target.SetAnchor(tl, anchor)
		}
		href := target.Name
		if tl != 0 {
			href += "#" + anchor
		}
		if interFrom[fd] == nil {
			interFrom[fd] = map[int32][]string{}
		}
		interFrom[fd][fl] = append(interFrom[fd][fl], href)
	}
	out := make(map[string][]byte, c.NumDocs())
	for _, di := range c.LiveDocIndexes() {
		out[c.Docs[di].Name] = writeXML(c.Docs[di], interFrom[di])
	}
	return out
}

// WriteXML serializes the document back to XML, emitting anchors as
// id attributes and intra-document links as href="#id" attributes on
// synthetic <link/> children. It is the inverse of ParseDocument up to
// the placement of link elements, and exists so generators can emit
// real XML files for the cmd tools.
func WriteXML(d *Document) []byte {
	return writeXML(d, nil)
}

func writeXML(d *Document, extHrefs map[int32][]string) []byte {
	var b bytes.Buffer
	linkFrom := map[int32][]int32{}
	for _, l := range d.IntraLinks {
		linkFrom[l[0]] = append(linkFrom[l[0]], l[1])
	}
	anchorOf := func(local int32) string {
		a := d.Elements[local].Anchor
		if a == "" {
			// ensure targets are addressable
			a = fmt.Sprintf("e%d", local)
		}
		return a
	}
	var emit func(local int32, depth int)
	emit = func(local int32, depth int) {
		e := d.Elements[local]
		b.WriteString(strings.Repeat(" ", depth))
		b.WriteByte('<')
		b.WriteString(e.Tag)
		needsAnchor := e.Anchor != ""
		if !needsAnchor {
			for _, l := range d.IntraLinks {
				if l[1] == local {
					needsAnchor = true
					break
				}
			}
		}
		if needsAnchor {
			fmt.Fprintf(&b, " id=%q", anchorOf(local))
		}
		kids := d.Children[local]
		links := linkFrom[local]
		ext := extHrefs[local]
		if len(kids) == 0 && len(links) == 0 && len(ext) == 0 {
			b.WriteString("/>\n")
			return
		}
		b.WriteString(">\n")
		for _, to := range links {
			fmt.Fprintf(&b, "%s<link href=\"#%s\"/>\n", strings.Repeat(" ", depth+1), anchorOf(to))
		}
		for _, href := range ext {
			fmt.Fprintf(&b, "%s<link href=%q/>\n", strings.Repeat(" ", depth+1), href)
		}
		for _, k := range kids {
			emit(k, depth+1)
		}
		fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat(" ", depth), e.Tag)
	}
	emit(0, 0)
	return b.Bytes()
}
