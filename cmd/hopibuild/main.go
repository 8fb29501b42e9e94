// Command hopibuild builds a HOPI index and persists it as a store of
// sealed, compressed label segments.
//
// Input is either a directory of XML files (id/xml:id anchors, idref
// and href links are recognized) or a synthetic collection:
//
//	hopibuild -in ./docs -out index.hopi
//	hopibuild -synthetic dblp -docs 620 -out dblp.hopi -distance
//	hopibuild -synthetic inex -docs 122 -out inex.hopi -partitioner single
//
// The segment store is written to -out.segs, the collection snapshot
// to -out.coll; query both with hopiquery -index <out>.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/xmlmodel"
)

func main() {
	var (
		in        = flag.String("in", "", "directory of XML files to index")
		synth     = flag.String("synthetic", "", "generate a collection instead: dblp or inex")
		docs      = flag.Int("docs", 620, "synthetic document count")
		out       = flag.String("out", "index.hopi", "output index path")
		seed      = flag.Int64("seed", 42, "seed for generators and builds")
		distance  = flag.Bool("distance", false, "build a distance-aware index (§5)")
		preselect = flag.Bool("preselect", false, "preselect link targets as centers (§4.2)")
		partition = flag.String("partitioner", "budget", "whole | single | nodes | budget")
		nodeCap   = flag.Int("cap", 1000, "node cap for -partitioner nodes")
		budget    = flag.Int64("budget", 1_000_000, "closure budget for -partitioner budget")
		join      = flag.String("join", "new", "new | fullpsg | old")
	)
	flag.Parse()

	coll, err := loadCollection(*in, *synth, *docs, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("collection: %d docs, %d elements, %d links\n",
		coll.NumDocs(), coll.NumElements(), coll.NumLinks())

	opts := hopi.DefaultOptions()
	opts.Seed = *seed
	opts.WithDistance = *distance
	opts.PreselectCenters = *preselect
	opts.NodeCap = *nodeCap
	opts.ClosureBudget = *budget
	switch *partition {
	case "whole":
		opts.Partitioner = hopi.Whole
	case "single":
		opts.Partitioner = hopi.SingleDoc
	case "nodes":
		opts.Partitioner = hopi.NodeCapped
	case "budget":
		opts.Partitioner = hopi.ClosureBudget
	default:
		fail(fmt.Errorf("unknown partitioner %q", *partition))
	}
	switch *join {
	case "new":
		opts.Join = hopi.NewJoin
	case "fullpsg":
		opts.Join = hopi.NewJoinFullPSG
	case "old":
		opts.Join = hopi.OldJoin
	default:
		fail(fmt.Errorf("unknown join %q", *join))
	}

	t0 := time.Now()
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		fail(err)
	}
	st := ix.Stats()
	fmt.Printf("built in %s: %d partitions, %d cross links, %d label entries in %d distinct lists\n",
		time.Since(t0).Round(time.Millisecond), st.Partitions, st.CrossLinks, ix.Size(), st.DistinctLists)
	fmt.Printf("phases: partition %s, covers %s (%d centers, %d pops, %d recomputes; largest partition %d elements, %.1f MB closure), join %s\n",
		st.PartitionTime.Round(time.Millisecond),
		st.CoverTime.Round(time.Millisecond),
		st.CoverCenters, st.CoverPops, st.CoverRecomputes,
		st.LargestPartition, float64(st.LargestClosureBytes)/(1<<20),
		st.JoinTime.Round(time.Millisecond))

	if err := ix.Save(*out); err != nil {
		fail(err)
	}
	// reopen what was written: proves the files load and reports the
	// sealed size from the store itself
	saved, err := hopi.Open(*out)
	if err != nil {
		fail(err)
	}
	seg := saved.SegmentStats()
	fmt.Printf("saved %s.segs (%d KB sealed, %.2f B/label) and %s.coll\n",
		*out, seg.SealedBytes/1024, seg.BytesPerLabel, *out)
}

func loadCollection(in, synth string, docs int, seed int64) (*hopi.Collection, error) {
	switch {
	case in != "":
		c, err := xmlmodel.ParseDir(in)
		if err != nil {
			return nil, err
		}
		return hopi.WrapCollection(c), nil
	case synth == "dblp":
		return hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, seed))), nil
	case synth == "inex":
		return hopi.WrapCollection(gen.INEX(gen.DefaultINEX(docs, 950, seed))), nil
	default:
		return nil, fmt.Errorf("pass -in DIR or -synthetic dblp|inex")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopibuild:", err)
	os.Exit(1)
}
