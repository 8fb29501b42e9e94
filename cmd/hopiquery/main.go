// Command hopiquery runs reachability, distance, and path queries
// against an index built by hopibuild.
//
//	hopiquery -index dblp.hopi -from pub00001.xml -to pub00000.xml
//	hopiquery -index dblp.hopi -from 'pub00005.xml:3' -to pub00002.xml -distance
//	hopiquery -index dblp.hopi -expr '//article//cite' -limit 10
//	hopiquery -index dblp.hopi -expr '//article//author' -ranked
//	hopiquery -index dblp.hopi -expr '//abstract//para' -limit 10 -explain
//	hopiquery -index dblp.hopi -descendants pub00000.xml
//
// Path expressions run as cursors with limit pushdown: -limit stops
// the evaluation, not just the printing. -explain prints the per-step
// execution plan (evaluator chosen, frontier sizes, candidates the tree
// and the link-arc walk decided, postings touched) instead of the
// results.
//
// Elements are addressed as "docname", "docname:localIndex" or
// "docname#anchor".
package main

import (
	"context"
	"flag"
	"fmt"
	"hopi"
	"os"
)

func main() {
	var (
		index       = flag.String("index", "index.hopi", "index path (from hopibuild)")
		from        = flag.String("from", "", "source element (doc[:local|#anchor])")
		to          = flag.String("to", "", "target element")
		distance    = flag.Bool("distance", false, "report the shortest-path length instead of a boolean")
		expr        = flag.String("expr", "", "path expression, e.g. //book//author")
		ranked      = flag.Bool("ranked", false, "rank path-expression matches by connection length")
		explain     = flag.Bool("explain", false, "print the execution plan of -expr instead of its results")
		descendants = flag.String("descendants", "", "list all elements reachable from this element")
		ancestors   = flag.String("ancestors", "", "list all elements reaching this element")
		limit       = flag.Int("limit", 20, "max results (pushed into the evaluation for -expr)")
	)
	flag.Parse()

	ix, err := hopi.Open(*index)
	if err != nil {
		fail(err)
	}
	coll := ix.Collection()

	switch {
	case *from != "" && *to != "":
		u, err := resolve(coll, *from)
		if err != nil {
			fail(err)
		}
		v, err := resolve(coll, *to)
		if err != nil {
			fail(err)
		}
		if *distance {
			d, err := ix.Distance(u, v)
			if err != nil {
				fail(err)
			}
			if d == hopi.Infinite {
				fmt.Println("unreachable")
			} else {
				fmt.Printf("distance %d\n", d)
			}
			return
		}
		fmt.Println(ix.Reaches(u, v))
	case *expr != "":
		pq, err := hopi.Prepare(*expr)
		if err != nil {
			fail(err)
		}
		var opts []hopi.QueryOption
		if *limit > 0 {
			opts = append(opts, hopi.QueryLimit(*limit))
		}
		if *ranked {
			opts = append(opts, hopi.QueryRanked())
		}
		if *explain {
			plan, err := ix.Explain(context.Background(), pq, opts...)
			if err != nil {
				fail(err)
			}
			printPlan(plan)
			return
		}
		cur, err := ix.Run(context.Background(), pq, opts...)
		if err != nil {
			fail(err)
		}
		defer cur.Close()
		for cur.Next() {
			r := cur.Result()
			if *ranked {
				fmt.Printf("%6.4f  %s  <%s> (element %d)\n", r.Score, r.Doc, r.Tag, r.Element)
			} else {
				fmt.Printf("%s  <%s> (element %d)\n", r.Doc, r.Tag, r.Element)
			}
		}
		if err := cur.Err(); err != nil {
			fail(err)
		}
		if cur.HasMore() {
			fmt.Println("... more results (raise -limit, or resume via the cursor API)")
		}
	case *descendants != "":
		u, err := resolve(coll, *descendants)
		if err != nil {
			fail(err)
		}
		printElems(coll, ix.Descendants(u), *limit)
	case *ancestors != "":
		u, err := resolve(coll, *ancestors)
		if err != nil {
			fail(err)
		}
		printElems(coll, ix.Ancestors(u), *limit)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func resolve(coll *hopi.Collection, spec string) (hopi.ElemID, error) {
	return coll.ResolveElement(spec)
}

func printElems(coll *hopi.Collection, ids []hopi.ElemID, limit int) {
	for i, id := range ids {
		if i >= limit {
			fmt.Printf("... %d more\n", len(ids)-i)
			return
		}
		fmt.Printf("%s  <%s> (element %d)\n", coll.DocName(coll.DocOf(id)), coll.Tag(id), id)
	}
}

// printPlan renders the per-step execution report as a fixed-width
// table.
func printPlan(p *hopi.Plan) {
	mode := "plain"
	if p.Ranked {
		mode = "ranked"
	}
	fmt.Printf("plan for %s (%s", p.Expr, mode)
	if p.Limit > 0 {
		fmt.Printf(", limit %d", p.Limit)
	}
	fmt.Printf("): %d results in %s\n", p.Matches, p.Elapsed)
	fmt.Printf("%-4s %-5s %-12s %-16s %10s %10s %10s %8s %8s %8s %10s %9s\n",
		"step", "axis", "tag", "mode", "candidates", "frontier", "matches", "tree", "walk", "walked", "postings", "centers")
	for i, sp := range p.Steps {
		fmt.Printf("%-4d %-5s %-12s %-16s %10d %10d %10d %8d %8d %8d %10d %9d\n",
			i, sp.Axis, sp.Tag, sp.Mode, sp.Candidates, sp.FrontierIn, sp.FrontierOut,
			sp.TreeMatches, sp.WalkMatches, sp.Walked, sp.Postings, sp.Centers)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopiquery:", err)
	os.Exit(1)
}
