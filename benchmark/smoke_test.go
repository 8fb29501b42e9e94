package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at 60 documents, untraced and traced,
// for well under a second of measuring each. It checks that the oracles
// pass, that every metric BENCHMARK.json names is emitted with its unit,
// that every metric is measured by some workload, that the counts the
// README calls exact repeat for the same seed, and that BENCHMARK.json
// is what -manifest prints.
func TestSmoke(t *testing.T) {
	measured := map[string]bool{}
	exact := map[string]float64{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 0.5, docs: 60, trace: trace,
				outDir: t.TempDir(), tmpDir: t.TempDir(), noHTTP: true}
			start := time.Now()
			r, err := execute(cfg)
			t.Logf("%s trace=%v: %v", w.name, trace, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := defsOf(!trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d named", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Unit == "" {
					t.Errorf("%s trace=%v: %s printed as %+v, want unit %q", w.name, trace, d.Name, m, d.Unit)
				}
				if d.E2E && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, m.Value)
				}
			}
			for name := range r.vals {
				measured[name] = true
			}
			for _, name := range []string{"cover_entries", "partition.parts", "query.rows_examined_per_result"} {
				v, ok := r.vals[name]
				if !ok {
					continue
				}
				key := w.name + " " + name
				if prev, seen := exact[key]; seen && prev != v.Value {
					t.Errorf("%s: %v on one run, %v on the next with the same seed", key, prev, v.Value)
				}
				exact[key] = v.Value
			}
		}
	}
	for _, d := range metricDefs {
		skipped := strings.HasPrefix(d.Name, "hopiserve.") || d.Name == "trace_overhead_pct" // the HTTP leg and main's overhead figure are off here
		if !measured[d.Name] && !skipped {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
	for _, key := range []string{"build-dblp cover_entries", "build-dblp partition.parts", "query-mem query.rows_examined_per_result"} {
		if _, ok := exact[key]; !ok {
			t.Errorf("%s was never measured", key)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != manifestJSON() {
		t.Error("BENCHMARK.json differs from the metric table; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestBoxClock checks the clock's arithmetic on hand-made samples: a
// box that ran at full speed for a second, then at half speed.
func TestBoxClock(t *testing.T) {
	t0 := time.Now()
	b := &boxClock{t0: t0,
		ends:  []time.Duration{0, time.Second, 3 * time.Second},
		cum:   []time.Duration{0, time.Second, 2 * time.Second},
		rates: []float64{1, 1, 0.5}}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, c := range []struct{ from, to, want float64 }{
		{0, 1, 1},     // full speed
		{1, 3, 1},     // two seconds at half speed
		{0.5, 2, 1},   // across the change
		{3, 5, 1},     // past the last sample: the last rate goes on
		{2.5, 2.5, 0}, // nothing
	} {
		if got := b.between(at(c.from), at(c.to)).Seconds(); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("between(%v, %v) = %v reference seconds, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "rpc", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "rpc", Start: 30, End: 60}, // overlaps the first: covered once
		{ID: 3, Parent: 0, Name: "rpc", Start: 80, End: 90},
	}
	if self := selfTimes(spans)[0]; self != 40 {
		t.Errorf("self time %d, want 40 (100 minus the 60 its children cover)", self)
	}
}
