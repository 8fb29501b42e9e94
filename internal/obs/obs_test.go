package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionRoundTrip drives every metric kind under concurrent
// writers while scraping repeatedly: each scrape must parse as strict
// Prometheus text, and counter values must be monotone across scrapes.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	sub := NewRegistry()
	r.AddSub(sub)

	total := r.Counter("hopi_test_total", "a plain counter")
	byMode := sub.CounterVec("hopi_test_mode_total", "a labeled counter", "mode")
	g := r.Gauge("hopi_test_gauge", "a plain gauge")
	r.GaugeFunc("hopi_test_func", "a sampled gauge", func() float64 { return 42.5 })
	lat := r.HistogramVec("hopi_test_latency_seconds", "a labeled histogram", DefLatencyBuckets, "op")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				total.Inc()
				byMode.With([]string{"semijoin", "pairwise", "seed"}[i%3]).Add(2)
				g.Set(float64(i))
				lat.With("query").Observe(float64(i%100) / 1000)
				lat.With("wal").Observe(0.0004)
			}
		}(w)
	}

	var lastTotal float64 = -1
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		fams, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("scrape did not parse: %v\n%s", err, buf.String())
		}
		f, ok := fams["hopi_test_total"]
		if !ok || len(f.Samples) != 1 {
			t.Fatalf("missing hopi_test_total in scrape")
		}
		if f.Samples[0].Value < lastTotal {
			t.Fatalf("counter went backwards: %v -> %v", lastTotal, f.Samples[0].Value)
		}
		lastTotal = f.Samples[0].Value
		if got := fams["hopi_test_func"].Samples[0].Value; got != 42.5 {
			t.Fatalf("GaugeFunc = %v, want 42.5", got)
		}
		if fams["hopi_test_latency_seconds"].Type != "histogram" {
			t.Fatalf("histogram family has type %q", fams["hopi_test_latency_seconds"].Type)
		}
	}
	close(stop)
	wg.Wait()

	// Header uniqueness: one HELP and one TYPE per family name.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			seen[name]++
			if seen[name] > 1 {
				t.Fatalf("duplicate HELP for %s", name)
			}
		}
	}
}

// TestSubRegistryMerge puts same-named families in two sub-registries
// and checks exposition emits one header with both sample sets.
func TestSubRegistryMerge(t *testing.T) {
	root := NewRegistry()
	a, b := NewRegistry(), NewRegistry()
	root.AddSub(a)
	root.AddSub(b)
	a.CounterVec("hopi_merge_total", "merged", "shard").With("s0").Add(3)
	b.CounterVec("hopi_merge_total", "merged", "shard").With("s1").Add(7)

	var buf bytes.Buffer
	if err := root.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE hopi_merge_total") != 1 {
		t.Fatalf("expected exactly one TYPE header, got:\n%s", out)
	}
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("merged output did not parse: %v\n%s", err, out)
	}
	var sum float64
	for _, s := range fams["hopi_merge_total"].Samples {
		sum += s.Value
	}
	if sum != 10 {
		t.Fatalf("merged samples sum to %v, want 10", sum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hopi_h_seconds", "h", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.0535) > 1e-9 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`hopi_h_seconds_bucket{le="0.001"} 2`, // 0.0005 and the inclusive 0.001
		`hopi_h_seconds_bucket{le="0.01"} 3`,
		`hopi_h_seconds_bucket{le="0.1"} 4`,
		`hopi_h_seconds_bucket{le="+Inf"} 5`,
		`hopi_h_seconds_count 5`,
	}
	for _, w := range want {
		if !strings.Contains(buf.String(), w) {
			t.Fatalf("missing %q in:\n%s", w, buf.String())
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	r.GaugeFunc("y", "y", func() float64 { return 1 })
	r.AddSub(NewRegistry())
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var cv *CounterVec
	cv.With("a").Inc()
	var hv *HistogramVec
	hv.With("a").Observe(1)
	var gv *GaugeVec
	gv.With("a").Set(1)
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("hopi_esc_total", "esc", "path").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped output did not parse: %v\n%s", err, buf.String())
	}
	got := fams["hopi_esc_total"].Samples[0].Labels["path"]
	if got != "a\"b\\c\nd" {
		t.Fatalf("label round-trip = %q", got)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"dup help":       "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\n",
		"orphan sample":  "b 1\n",
		"no type":        "# HELP a x\na 1\n",
		"neg counter":    "# HELP a x\n# TYPE a counter\na -1\n",
		"no inf bucket":  "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-monotone":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"bad value":      "# HELP a x\n# TYPE a gauge\na zebra\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted malformed input", name)
		}
	}
	// And the well-formed shape parses.
	ok := "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 2.5\nh_count 5\n"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
}

// TestStatsJSON renders one tree both ways: the JSON object lists the
// exposition's families under the same names and values, in the three
// documented shapes, and an info family's labels are sampled per
// scrape.
func TestStatsJSON(t *testing.T) {
	r := NewRegistry()
	sub := NewRegistry()
	r.AddSub(sub)
	r.Counter("hopi_j_total", "plain counter").Add(7)
	r.CounterVec("hopi_j_mode_total", "labeled counter", "mode", "side").With("seed", "in").Add(3)
	sub.CounterVec("hopi_j_mode_total", "labeled counter", "mode", "side").With("pair", "out").Inc()
	r.CounterVec("hopi_j_unused_total", "labeled counter without series", "rpc")
	r.GaugeFunc("hopi_j_func", "sampled gauge", func() float64 { return 2.5 })
	r.HistogramVec("hopi_j_seconds", "labeled histogram", DefLatencyBuckets, "op").With("seal").Observe(0.25)
	role := "primary"
	r.Info("hopi_j_info", "info family", []string{"role", "url"}, func() []string { return []string{role, "http://h:1"} })

	render := func() (map[string]any, map[string]*ParsedFamily) {
		var js, text bytes.Buffer
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Fatalf("JSON did not decode: %v\n%s", err, js.String())
		}
		fams, err := ParseText(&text)
		if err != nil {
			t.Fatal(err)
		}
		return doc, fams
	}
	doc, fams := render()
	if len(doc) != len(fams) {
		t.Errorf("JSON lists %d families, exposition %d", len(doc), len(fams))
	}
	want := map[string]any{
		"hopi_j_total":        7.0,
		"hopi_j_mode_total":   map[string]any{"mode=seed,side=in": 3.0, "mode=pair,side=out": 1.0},
		"hopi_j_unused_total": map[string]any{},
		"hopi_j_func":         2.5,
		"hopi_j_seconds":      map[string]any{"op=seal": map[string]any{"count": 1.0, "sum": 0.25}},
		"hopi_j_info":         map[string]any{"role=primary,url=http://h:1": 1.0},
	}
	for name, w := range want {
		if got := doc[name]; fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
		if fams[name] == nil {
			t.Errorf("%s missing from the exposition", name)
		}
	}
	if s := fams["hopi_j_info"].Samples; len(s) != 1 || s[0].Labels["role"] != "primary" || s[0].Value != 1 {
		t.Errorf("info exposition: %+v", s)
	}
	role = "replica"
	if doc, _ = render(); fmt.Sprint(doc["hopi_j_info"]) != fmt.Sprint(map[string]any{"role=replica,url=http://h:1": 1.0}) {
		t.Errorf("info labels not resampled: %v", doc["hopi_j_info"])
	}
}
