// Paging: prepared queries, streaming cursors with limit pushdown,
// resume tokens, and EXPLAIN — the API a search frontend builds
// pagination on. The walkthrough:
//
//  1. Prepare compiles an expression once; Run executes it against any
//     snapshot as a cursor.
//  2. A cursor with QueryLimit stops evaluating once the page is full,
//     and Token/QueryResume continue the sequence on a later request —
//     pages concatenate to exactly the full result.
//  3. Tokens are bound to the snapshot epoch: after a maintenance
//     batch they fail with ErrStaleToken and the sequence restarts.
//  4. Explain reports what each step actually did.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"hopi"
	"hopi/internal/gen"
)

func main() {
	// A generated citation network: ~200 documents with cross-document
	// cite links, the workload shape of the paper's §6 experiments.
	coll := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(200, 7)))
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Compile once, run many times. The prepared form is
	// snapshot-independent — keep it for the life of the process.
	pq, err := hopi.Prepare("//article//author")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Page through the result 5 at a time. Each page is an
	// independent request: it re-runs the prepared query with a resume
	// token, and the limit pushdown means a page only evaluates far
	// enough to fill itself.
	ctx := context.Background()
	snap := ix.Snapshot()
	var token string
	total := 0
	for page := 1; ; page++ {
		runOpts := []hopi.QueryOption{hopi.QueryLimit(5)}
		if token != "" {
			runOpts = append(runOpts, hopi.QueryResume(token))
		}
		cur, err := snap.Run(ctx, pq, runOpts...)
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
			total++
			if page <= 2 { // print the first two pages only
				r := cur.Result()
				fmt.Printf("  page %d: %s <%s> (element %d)\n", page, r.Doc, r.Tag, r.Element)
			}
		}
		more := cur.HasMore()
		token = cur.Token()
		cur.Close()
		if !more {
			fmt.Printf("drained %d results over %d pages\n\n", total, page)
			break
		}
	}

	// 3. Maintenance bumps the snapshot epoch and retires outstanding
	// tokens: a client holding one gets ErrStaleToken and starts over.
	b := hopi.NewBatch()
	if err := b.InsertXML("new.xml", []byte(`<article><author>New</author></article>`)); err != nil {
		log.Fatal(err)
	}
	if _, err := ix.Apply(ctx, b); err != nil {
		log.Fatal(err)
	}
	_, err = ix.Snapshot().Run(ctx, pq, hopi.QueryLimit(5), hopi.QueryResume(token))
	fmt.Printf("token after a write: %v (stale: %v)\n\n", err, errors.Is(err, hopi.ErrStaleToken))

	// 4. EXPLAIN: what did the engine actually do? With a limit, the
	// final step reports the streaming pushdown mode and how few
	// posting entries it needed.
	for _, limit := range []int{0, 5} {
		plan, err := ix.Explain(ctx, pq, hopi.QueryLimit(limit))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("limit %d: %d results in %s\n", limit, plan.Matches, plan.Elapsed)
		for i, sp := range plan.Steps {
			fmt.Printf("  step %d %s%s: mode=%s candidates=%d frontier=%d matches=%d postings=%d\n",
				i, sp.Axis, sp.Tag, sp.Mode, sp.Candidates, sp.FrontierIn, sp.FrontierOut, sp.Postings)
		}
	}
}
