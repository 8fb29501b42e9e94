// Ranked: distance-aware retrieval (§5) in the style of the XXL search
// engine — the query //book//author should rank an author sitting
// directly under a book higher than one that is only reachable over a
// long chain of links. The example also demonstrates querying the
// persisted index (§3.4) straight from its sealed segment files.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hopi"
)

func main() {
	files := map[string][]byte{
		// direct authorship
		"catalog.xml": []byte(`
<catalog>
  <book id="tcpip"><title>TCP/IP Illustrated</title><author>Stevens</author></book>
  <book id="xml"><title>XML Indexing</title><editorial href="people.xml#committee"/></book>
</catalog>`),
		// authorship reachable only through an editorial committee link
		"people.xml": []byte(`
<people>
  <committee id="committee">
    <member><role>chair</role><author>Weikum</author></member>
    <member><author>Theobald</author></member>
  </committee>
</people>`),
		// a review far away from any book
		"reviews.xml": []byte(`
<reviews>
  <review href="catalog.xml#xml"><author>Anonymous</author></review>
</reviews>`),
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		log.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query: //book//author (ranked by connection length)")
	matches, err := ix.QueryRanked("//book//author")
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("  %.4f  %-12s  path length reflects %d-step witness\n",
			m.Score, m.Doc, len(m.Path))
	}
	fmt.Println()

	// The same distances back the SQL-style MIN(LOUT.DIST+LIN.DIST)
	// lookups on the persisted store: Open reads the sealed LIN/LOUT
	// segments through mmap without inflating them into memory.
	dir, err := os.MkdirTemp("", "hopi-ranked")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalog.hopi")
	if err := ix.Save(path); err != nil {
		log.Fatal(err)
	}
	stored, err := hopi.Open(path)
	if err != nil {
		log.Fatal(err)
	}

	catalog, _ := coll.DocByName("catalog.xml")
	people, _ := coll.DocByName("people.xml")
	xmlBook, _ := coll.Anchor(catalog, "xml")
	committee, _ := coll.Anchor(people, "committee")
	d, err := stored.Distance(xmlBook, committee)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored distance book#xml → people#committee: %d\n", d)
	st := stored.SegmentStats()
	fmt.Printf("store holds %d label entries in %d sealed bytes (%.2f B/label incl. backward indexes)\n",
		st.LiveEntries, st.SealedBytes, st.BytesPerLabel)
}
