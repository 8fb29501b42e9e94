package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/obs"
)

// statsDoc is a decoded /stats body: family name → a number, an object
// keyed by "label=value[,…]", or a histogram's {count, sum}.
type statsDoc map[string]any

func getStats(t *testing.T, base string) statsDoc {
	t.Helper()
	var st statsDoc
	getJSON(t, base+"/stats", http.StatusOK, &st)
	return st
}

// num reads an unlabeled counter or gauge.
func (d statsDoc) num(name string) float64 {
	v, _ := d[name].(float64)
	return v
}

// info returns one label of the index's hopi_index_info series.
func (d statsDoc) info(label string) string {
	series, _ := d["hopi_index_info"].(map[string]any)
	for key := range series {
		for _, pair := range strings.Split(key, ",") {
			if k, v, _ := strings.Cut(pair, "="); k == label {
				return v
			}
		}
	}
	return ""
}

// TestStatsIsMetrics: /stats and /metrics are one registry rendered
// twice. On a quiescent durable server every /stats key is a /metrics
// family with the same value, and every /metrics family is a /stats
// key.
func TestStatsIsMetrics(t *testing.T) {
	srv, _ := durableServer(t, filepath.Join(t.TempDir(), "p.hopi"))
	postDoc(t, srv.URL, "new.xml", `<bib><book><author/></book><cite href="a.xml"/></bib>`, http.StatusCreated)
	getJSON(t, srv.URL+"/query?expr=//book//author", http.StatusOK, nil)

	got := normalizeKeys(getStats(t, srv.URL))
	want := exposedAsStats(scrape(t, srv.URL))
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("/metrics family %s is not a /stats key", name)
		}
	}
	for name, v := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("/stats key %s is not a /metrics family", name)
		} else if !reflect.DeepEqual(v, w) {
			t.Errorf("%s: /stats %v, /metrics %v", name, v, w)
		}
	}
	for _, name := range []string{"hopi_index_docs", "hopi_index_label_entries", "hopi_serve_queries_total"} {
		if got[name] == 0.0 {
			t.Errorf("%s is 0 after an insert and a query", name)
		}
	}
}

// exposedAsStats reshapes a parsed exposition the way /stats renders
// it, with label pairs in sorted order.
func exposedAsStats(fams map[string]*obs.ParsedFamily) map[string]any {
	out := map[string]any{}
	for name, f := range fams {
		byKey := map[string]any{}
		for _, s := range f.Samples {
			var pairs []string
			for k, v := range s.Labels {
				if k != "le" {
					pairs = append(pairs, k+"="+v)
				}
			}
			sort.Strings(pairs)
			key := strings.Join(pairs, ",")
			switch s.Name {
			case name:
				byKey[key] = s.Value
			case name + "_count", name + "_sum":
				h, _ := byKey[key].(map[string]any)
				if h == nil {
					h = map[string]any{}
					byKey[key] = h
				}
				h[strings.TrimPrefix(s.Name, name+"_")] = s.Value
			}
		}
		if v, ok := byKey[""]; ok && len(byKey) == 1 {
			out[name] = v
		} else {
			out[name] = byKey
		}
	}
	return out
}

// normalizeKeys sorts the label pairs of every labeled /stats key.
func normalizeKeys(st statsDoc) statsDoc {
	for name, v := range st {
		byKey, ok := v.(map[string]any)
		if !ok || byKey["count"] != nil {
			continue
		}
		sorted := map[string]any{}
		for key, x := range byKey {
			pairs := strings.Split(key, ",")
			sort.Strings(pairs)
			sorted[strings.Join(pairs, ",")] = x
		}
		st[name] = sorted
	}
	return st
}

// TestStatsDoesNotWalkTheCover: a /stats scrape reads counters the
// index keeps; it never decodes a sealed label list, so over an opened
// sealed store the decode cache's miss counter stays put.
func TestStatsDoesNotWalkTheCover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hopi")
	opts := hopi.DefaultOptions()
	opts.Seed = 17
	built, err := hopi.Create(path, hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(40, 17))), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := hopi.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := httptest.NewServer(newServer(ix, 0))
	defer srv.Close()

	misses := func() float64 {
		return counterTotal(scrape(t, srv.URL), "hopi_segment_cache_misses_total", "", "")
	}
	before := misses()
	for i := 0; i < 10; i++ {
		if code, body := get(t, srv.Config.Handler, "/stats"); code != http.StatusOK {
			t.Fatalf("GET /stats: %d %s", code, body)
		}
		if now := misses(); now != before {
			t.Fatalf("/stats call %d moved hopi_segment_cache_misses_total %v -> %v", i+1, before, now)
		}
	}
}
