// Command hopibench regenerates the paper's evaluation (§7): Table 1,
// the §7.2 centralized baseline, Table 2, the §7.3 maintenance
// experiments, the INEX build, and the distance/preselection/weights/
// balance ablations — on synthetic collections shaped like the
// originals. Serving, durability, replication, watch and sharding
// costs are not measured here: benchmark/ (bash benchmark/run.sh) is
// the one harness for those.
//
// Usage:
//
//	hopibench                        # everything except the slow centralized run
//	hopibench -exp table2            # one experiment
//	hopibench -exp all -docs 620     # includes centralized (~2 min)
//	hopibench -docs 300 -seed 7      # smaller, different seed
//	hopibench -exp table1 -in ./docs # Table 1 plus a row for a directory of XML files
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hopi/internal/experiments"
)

// experiment is one paper table or paragraph. byDefault is false only
// for the centralized baseline, which is too slow to run unasked.
type experiment struct {
	name, title string
	byDefault   bool
	run         func(experiments.Config) (string, error)
}

var all = []experiment{
	{"table1", "Table 1: collection features", true,
		rendered(experiments.Table1, experiments.RenderTable1)},
	{"centralized", "§7.2: centralized cover (no partitioning; slow)", false,
		rendered(experiments.Centralized, experiments.RenderCentralized)},
	{"table2", "Table 2: index build time and size", true,
		rendered(experiments.Table2, experiments.RenderTable2)},
	{"maintenance", "§7.3: index maintenance", true,
		rendered(experiments.Maintenance, experiments.RenderMaintenance)},
	{"inex", "§7.2: INEX build", true,
		rendered(experiments.INEXBuild, experiments.RenderINEX)},
	{"distance", "§5: distance-aware index overhead", true,
		rendered(experiments.DistanceOverhead, experiments.RenderDistance)},
	{"preselect", "§4.2: center preselection", true,
		rendered(experiments.Preselect, experiments.RenderPreselect)},
	{"weights", "§4.3: edge-weight schemes", true,
		rendered(experiments.WeightsAblation, experiments.RenderWeights)},
	{"balance", "§4.3: partition balance / parallel speedup bound", true,
		rendered(experiments.Balance, experiments.RenderBalance)},
}

// rendered chains an experiment to the function that formats its result.
func rendered[T any](measure func(experiments.Config) (T, error), render func(T) string) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		r, err := measure(cfg)
		if err != nil {
			return "", err
		}
		return render(r), nil
	}
}

func main() {
	var names []string
	for _, e := range all {
		names = append(names, e.name)
	}
	valid := strings.Join(append(names, "all", "default"), ",")

	exp := flag.String("exp", "default", "comma-separated experiments ("+valid+")")
	docs := flag.Int("docs", 620, "DBLP-like document count (paper: 6210)")
	inexDocs := flag.Int("inexdocs", 122, "INEX-like document count (paper: 12232)")
	inexEls := flag.Int("inexels", 950, "INEX-like mean elements per document (paper: ~986)")
	seed := flag.Int64("seed", 42, "generator and build seed")
	in := flag.String("in", "", "directory of XML files to add to Table 1 as one more row")
	flag.Parse()

	want := map[string]bool{}
	for _, s := range strings.Split(*exp, ",") {
		s = strings.TrimSpace(s)
		known := false
		for _, e := range all {
			if s == e.name || s == "all" || s == "default" && e.byDefault {
				want[e.name] = true
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "hopibench: unknown experiment %q; valid: %s\n", s, valid)
			os.Exit(2)
		}
	}

	cfg := experiments.Config{
		DBLPDocs: *docs, INEXDocs: *inexDocs, INEXMeanElements: *inexEls, Seed: *seed, Dir: *in,
	}
	for _, e := range all {
		if !want[e.name] {
			continue
		}
		fmt.Printf("=== %s ===\n", e.title)
		out, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hopibench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
