// Command benchmark is the repository's benchmark: four seeded
// workloads (build-dblp, query-mem, maintain-segments, router-4shard)
// that each build an index, serve a read-only, a mixed and a write-only
// window, check their answers against an oracle, and print every metric
// of BENCHMARK.json by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	docs     int    // 0: the workload's own scale
	outDir   string // trace and result files
	tmpDir   string // durable stores; inside the checkout
	noHTTP   bool   // skip the traced query-mem run's hopiserve subprocess
}

func (c config) docsOr(def int) int {
	if c.docs > 0 {
		return c.docs
	}
	return def
}

type workload struct {
	name string
	why  string
	run  func(*run) error
	// boxShare is how much of the reference kernel's slowdown the
	// workload's times follow (boxclock.go), measured over 40 runs.
	boxShare float64
}

var workloads = []workload{
	{"build-dblp", "paper-scale build (6,210 docs): partition, twohop and psg do the work; serving is a short tail", runBuild, 0.25},
	{"query-mem", "in-memory serving of a mixed prepared-query schedule: twohop probes, query engine and cursor; no storage", runQuery, 1},
	{"maintain-segments", "writes beside reads on the durable segment backend: core maintenance, WAL fsync, seal and compaction", runMaintain, 1},
	{"router-4shard", "cross-shard reads through the router, alone and under a paced insert stream that strands its caches", runRouter, 1},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]jsMetric `json:"metrics"`
}

type jsMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and returns the run with its metrics set.
func execute(cfg config) (*run, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(cfg)
	r.clock.restart(w.boxShare)
	syscall.Sync() // what the build of this program left dirty is not the workload's to write back
	start := time.Now()
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("box.slowdown", r.clock.slowdown(start), 1)
	return r, nil
}

// result selects the metrics the run's mode prints: the end-to-end
// list untraced, the per-layer list traced. A layer the workload does
// not exercise reports 0.
func (r *run) result() (result, error) {
	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]jsMetric{}}
	res.Correct = res.Failed == 0
	for _, d := range defsOf(!r.cfg.trace) {
		m, ok := r.vals[d.Name]
		if !ok && d.E2E {
			return res, fmt.Errorf("%s did not measure %s", r.cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = jsMetric{Value: m.Value, Unit: d.Unit}
	}
	return res, nil
}

// printTable lists every metric the run measured with its unit and the
// number of samples behind it.
func (r *run) printTable() {
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, n := range names {
		m := r.vals[n]
		fmt.Printf("%-42s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, f := range r.findings {
		fmt.Printf("finding: %s\n", f)
	}
}

// save writes the run's measurements (and, traced, its spans) under
// outDir for -compare and for the traced run's overhead figure.
func (r *run) save() error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := r.rec.write(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".json"), r.cfg.workload, r.cfg.seed, r.findings); err != nil {
			return err
		}
	}
	kind := "result"
	if r.cfg.trace {
		kind = "layers"
	}
	data, err := json.MarshalIndent(savedRun{Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Docs: r.cfg.docs, Metrics: r.vals}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.outDir, kind+"-"+r.cfg.workload+".json"), data, 0o644)
}

// savedRun is the file save writes and -compare reads.
type savedRun struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  float64             `json:"seconds"`
	Docs     int                 `json:"docs"`
	Metrics  map[string]measured `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all four")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed for everything done to the dataset: probe pairs, writer targets, sweep starts")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measuring time, split between the read-only, the mixed and the write-only window")
	trace := flag.Int("trace", 0, "1 records spans around every layer call and prints the per-layer metrics")
	flag.IntVar(&cfg.docs, "docs", 0, "override the workload's document count (smoke runs)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for trace and result files")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "directory for the durable stores a run creates")
	flag.BoolVar(&cfg.noHTTP, "no-http", false, "skip the HTTP leg of the traced query-mem run")
	calibrate := flag.Int("calibrate", 0, "run each workload this many times and print median, IQR and the bound each metric can hold")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric table")
	flag.Parse()
	cfg.trace = *trace != 0
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *manifest:
		fmt.Println(manifestJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if !compareFiles(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	case *calibrate > 0:
		if err := runCalibrate(cfg, *calibrate); err != nil {
			fatal(err)
		}
		return
	}

	if cfg.workload == "" {
		// one fresh process per workload: peak RSS is process-wide
		for _, w := range workloads {
			cfg.workload = w.name
			if _, err := runChild(cfg, cfg.seed); err != nil {
				fatal(err)
			}
		}
		return
	}
	r, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.trace {
		r.traceOverhead()
	}
	if err := r.save(); err != nil {
		fatal(err)
	}
	r.printTable()
	res, err := r.result()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
