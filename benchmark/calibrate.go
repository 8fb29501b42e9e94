package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const runSeconds = 10

// manifestJSON renders BENCHMARK.json from the workload and metric
// tables, so the file and the program cannot name different things.
func manifestJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eM struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerM struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2eM   `json:"end_to_end"`
		PerLayer   []layerM `json:"per_layer"`
	}
	m.Command = []string{"bash", "benchmark/run.sh"}
	m.Paths = []string{"benchmark"}
	m.RunSeconds = runSeconds
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range metricDefs {
		if d.E2E {
			m.EndToEnd = append(m.EndToEnd, e2eM{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			m.PerLayer = append(m.PerLayer, layerM{d.Name, d.Unit, d.Better})
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}

// runChild runs one workload in a fresh process (peak RSS is a
// process-wide high-water mark) and parses the result line.
func runChild(cfg config, seed int64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-docs", fmt.Sprint(cfg.docs), "-out", cfg.outDir, "-tmp", cfg.tmpDir,
		"-no-http="+fmt.Sprint(cfg.noHTTP))
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf) // the child's table and result line are this run's output too
	err = cmd.Run()
	out := buf.Bytes()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("%s: no result line: %w", cfg.workload, jerr)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d operations failed", cfg.workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// rule the acceptance check applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	if ld < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// calibrated is one end-to-end metric's steadiness on one workload.
type calibrated struct {
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Spread float64   `json:"spread"` // IQR / median
	Bound  float64   `json:"bound"`  // max(default, 2·spread)
	Demote bool      `json:"demote"` // cannot hold 25%
	Values []float64 `json:"values"`
}

type calibration struct {
	Env       map[string]string                `json:"env"`
	Workloads map[string]map[string]calibrated `json:"workloads"`
}

func envStamp(cfg config) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"seed":       fmt.Sprint(cfg.seed),
		"docs":       fmt.Sprint(cfg.docs),
		"seconds":    fmt.Sprint(cfg.seconds),
		"commit":     "unknown",
		"cpu":        "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// runCalibrate runs each workload n times, each with another seed, and
// reports per end-to-end metric the median, the interquartile range and
// the bound it can hold: max(default, 2·IQR/median).
func runCalibrate(cfg config, n int) error {
	cal := calibration{Env: envStamp(cfg), Workloads: map[string]map[string]calibrated{}}
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		wcfg := cfg
		wcfg.workload = w.name
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runChild(wcfg, cfg.seed+int64(i))
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			logf("calibrate %s run %d/%d done", w.name, i+1, n)
		}
		cal.Workloads[w.name] = map[string]calibrated{}
		fmt.Printf("# %s: %d runs, seeds %d..%d\n", w.name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Printf("%-20s %14s %12s %8s %8s\n", "metric", "median", "IQR", "spread", "bound")
		for _, d := range defsOf(true) {
			q1, q2, q3 := quartiles(values[d.Name])
			c := calibrated{Median: q2, IQR: q3 - q1, Values: values[d.Name]}
			if q2 != 0 {
				c.Spread = (q3 - q1) / math.Abs(q2)
			}
			c.Bound = math.Max(d.Bound, 2*c.Spread)
			c.Demote = c.Bound > 0.25
			cal.Workloads[w.name][d.Name] = c
			note := ""
			if c.Demote {
				note = "  cannot hold 25%: demote to per-layer"
			} else if c.Spread > d.Bound/3 {
				note = "  above a third of its bound"
			}
			fmt.Printf("%-20s %14.4f %12.4f %7.1f%% %7.0f%%%s\n", d.Name, c.Median, c.IQR, 100*c.Spread, 100*c.Bound, note)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cal, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "calibration.json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, data, 0o644)
}

// cell is one metric of one workload as a result file holds it: a single
// run's value, or a calibration's median with its spread.
type cell struct {
	value, spread float64
}

// loadCells reads a calibration file or a single saved run into
// workload → metric → cell.
func loadCells(path string) (map[string]map[string]cell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]cell{}
	var cal calibration
	if err := json.Unmarshal(data, &cal); err == nil && len(cal.Workloads) > 0 {
		for w, ms := range cal.Workloads {
			out[w] = map[string]cell{}
			for name, c := range ms {
				out[w][name] = cell{c.Median, c.Spread}
			}
		}
		return out, nil
	}
	var one savedRun
	if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s: neither a calibration nor a saved run", path)
	}
	out[one.Workload] = map[string]cell{}
	for name, m := range one.Metrics {
		out[one.Workload][name] = cell{value: m.Value}
	}
	return out, nil
}

// compareFiles prints, for every end-to-end metric both files hold, the
// change from old to new and a verdict: REGRESSION when new is worse by
// more than the metric's bound, unresolved when either side's own runs
// spread by more than the bound (then the comparison says nothing either
// way). It reports whether every metric was resolved and none regressed.
func compareFiles(oldPath, newPath string) bool {
	oldC, err := loadCells(oldPath)
	if err != nil {
		fatal(err)
	}
	newC, err := loadCells(newPath)
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, w := range workloads {
		if oldC[w.name] == nil || newC[w.name] == nil {
			continue
		}
		fmt.Printf("# %s\n%-20s %14s %14s %9s %7s\n", w.name, "metric", "old", "new", "change", "bound")
		for _, d := range defsOf(true) {
			o, okO := oldC[w.name][d.Name]
			n, okN := newC[w.name][d.Name]
			if !okO || !okN || o.value == 0 {
				continue
			}
			change := (n.value - o.value) / math.Abs(o.value)
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := ""
			switch spread := math.Max(o.spread, n.spread); {
			case spread > d.Bound:
				verdict = fmt.Sprintf("  unresolved: runs spread by %.0f%%", 100*spread)
				ok = false
			case worse > d.Bound:
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Printf("%-20s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", d.Name, o.value, n.value, 100*change, 100*d.Bound, verdict)
		}
	}
	return ok
}

// traceOverhead sets trace_overhead_pct on a traced run from the
// untraced run of the same workload, seed and scale, if one was saved:
// how much worse the workload's main number is with the recorder on.
func (r *run) traceOverhead() {
	data, err := os.ReadFile(filepath.Join(r.cfg.outDir, "result-"+r.cfg.workload+".json"))
	var base savedRun
	if err != nil || json.Unmarshal(data, &base) != nil ||
		base.Seed != r.cfg.seed || base.Seconds != r.cfg.seconds || base.Docs != r.cfg.docs {
		r.finding("trace_overhead_pct is 0: no untraced result of %s with this seed, scale and duration under %s; run with -trace 0 first",
			r.cfg.workload, r.cfg.outDir)
		r.set("trace_overhead_pct", 0, 0)
		return
	}
	name, sign := "ro_query_qps", -1.0
	if r.cfg.workload == "build-dblp" {
		name, sign = "build_s", 1.0
	}
	untraced := base.Metrics[name].Value
	if untraced == 0 {
		r.set("trace_overhead_pct", 0, 0)
		return
	}
	r.set("trace_overhead_pct", 100*sign*(r.get(name)-untraced)/untraced, 1)
}
