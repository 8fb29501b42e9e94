package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry — including every attached
// sub-registry — in Prometheus text exposition format (version 0.0.4).
// Families sharing a name across sub-registries are merged under one
// HELP/TYPE header so the output never repeats a header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names, groups := r.gather()
	bw := bufio.NewWriter(w)
	for _, name := range names {
		lead := groups[name][0]
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(lead.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, lead.kind)
		for _, f := range groups[name] {
			if f.kind != lead.kind {
				return fmt.Errorf("obs: family %s registered as both %s and %s", name, lead.kind, f.kind)
			}
			f.write(bw)
		}
	}
	return bw.Flush()
}

// WriteJSON renders the same families as WritePrometheus as one JSON
// object keyed by family name: an unlabeled counter or gauge is a
// number, a labeled family an object keyed by "label=value[,…]", and a
// histogram {"count": n, "sum": s}.
func (r *Registry) WriteJSON(w io.Writer) error {
	names, groups := r.gather()
	out := make(map[string]any, len(names))
	for _, name := range names {
		var byKey map[string]any
		for _, f := range groups[name] {
			if len(f.labels) > 0 && byKey == nil {
				byKey = map[string]any{}
				out[name] = byKey
			}
			for _, ch := range f.children() {
				if byKey == nil {
					out[name] = ch.jsonValue()
				} else {
					byKey[ch.key(f.labels)] = ch.jsonValue()
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// gather returns the tree's family names, sorted, and the families
// under each.
func (r *Registry) gather() ([]string, map[string][]*family) {
	groups := map[string][]*family{}
	var names []string
	collect(r, groups, &names, map[*Registry]bool{})
	sort.Strings(names)
	return names, groups
}

// collect gathers families depth-first, keeping first-seen name order
// stable and guarding against registry cycles.
func collect(r *Registry, groups map[string][]*family, names *[]string, seen map[*Registry]bool) {
	if r == nil || seen[r] {
		return
	}
	seen[r] = true
	r.mu.Lock()
	ord := append([]string(nil), r.ord...)
	fams := make([]*family, 0, len(ord))
	for _, n := range ord {
		fams = append(fams, r.fams[n])
	}
	subs := append([]*Registry(nil), r.subs...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, ok := groups[f.name]; !ok {
			*names = append(*names, f.name)
		}
		groups[f.name] = append(groups[f.name], f)
	}
	for _, s := range subs {
		collect(s, groups, names, seen)
	}
}

// child is one series of a family at exposition time: its label values
// and the metric behind it, a gauge read through fn.
type child struct {
	values []string
	c      *Counter
	fn     func() float64
	h      *Histogram
}

// children lists a family's series in registration order. An info
// family has one, whose label values its func samples now.
func (f *family) children() []child {
	f.mu.Lock()
	info := f.info
	out := make([]child, 0, len(f.order))
	for _, key := range f.order {
		ch := child{c: f.counters[key], fn: f.funcs[key], h: f.hists[key]}
		if g := f.gauges[key]; g != nil {
			ch.fn = g.Value
		}
		if len(f.labels) > 0 {
			ch.values = strings.Split(key, labelSep)
		}
		out = append(out, ch)
	}
	f.mu.Unlock()
	if info != nil {
		return []child{{values: info(), fn: func() float64 { return 1 }}}
	}
	return out
}

// key renders the child's label pairs as "a=x,b=y".
func (ch child) key(labels []string) string {
	pairs := make([]string, len(labels))
	for i, n := range labels {
		pairs[i] = n + "=" + ch.values[i]
	}
	return strings.Join(pairs, ",")
}

func (ch child) jsonValue() any {
	switch {
	case ch.c != nil:
		return ch.c.Value()
	case ch.fn != nil:
		return jsonFloat(ch.fn())
	}
	return map[string]any{"count": ch.h.Count(), "sum": jsonFloat(ch.h.Sum())}
}

// jsonFloat passes finite values through and spells the others as the
// text format does, since a JSON number cannot carry them.
func jsonFloat(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmtFloat(v)
	}
	return v
}

func (f *family) write(w io.Writer) {
	for _, ch := range f.children() {
		lbl := labelString(f.labels, ch.values, "", "")
		switch {
		case ch.c != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, ch.c.Value())
		case ch.fn != nil:
			fmt.Fprintf(w, "%s%s %s\n", f.name, lbl, fmtFloat(ch.fn()))
		case ch.h != nil:
			h := ch.h
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				le := labelString(f.labels, ch.values, "le", fmtFloat(b))
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			le := labelString(f.labels, ch.values, "le", "+Inf")
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lbl, fmtFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl, cum)
		}
	}
}

// labelString renders {a="x",b="y"} with an optional extra pair (le for
// histogram buckets), or "" when there are no labels at all.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(v))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	// %q already escapes \, ", and newline exactly as the format wants.
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------
// Parser — a strict reader for the subset of the text format the writer
// emits. Shared by the exposition tests, the router aggregation test,
// and the CI smoke test, so a malformed scrape fails loudly everywhere.

// Sample is one parsed exposition line.
type Sample struct {
	Name   string // includes _bucket/_sum/_count suffixes for histograms
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family as read back from exposition text.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText parses Prometheus text exposition strictly: every sample
// must follow its family's HELP and TYPE headers, headers must be
// unique per family, histogram cumulative bucket counts must be
// monotone in le with _count equal to the +Inf bucket, and counter
// values must be finite and non-negative.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := map[string]*ParsedFamily{}
	var cur *ParsedFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without a name", lineNo)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			cur = &ParsedFamily{Name: name, Help: help}
			fams[name] = cur
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			if cur == nil || cur.Name != name {
				return nil, fmt.Errorf("line %d: TYPE %s does not follow its HELP", lineNo, name)
			}
			if cur.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
			}
			cur.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleBelongs(cur, s.Name) {
			return nil, fmt.Errorf("line %d: sample %s outside its family block", lineNo, s.Name)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", f.Name)
		}
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

func sampleBelongs(f *ParsedFamily, sample string) bool {
	if sample == f.Name {
		return true
	}
	if f.Type == "histogram" {
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if sample == f.Name+sfx {
				return true
			}
		}
	}
	return false
}

func validateFamily(f *ParsedFamily) error {
	if f.Type == "counter" {
		for _, s := range f.Samples {
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0 {
				return fmt.Errorf("counter %s has invalid value %v", f.Name, s.Value)
			}
		}
	}
	if f.Type != "histogram" {
		return nil
	}
	// Group buckets by their non-le label set and check monotonicity.
	type series struct {
		lastLe  float64
		lastCum float64
		started bool
		inf     float64
		hasInf  bool
		count   float64
		hasCnt  bool
	}
	groups := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		ks := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		var b strings.Builder
		for _, k := range ks {
			fmt.Fprintf(&b, "%s=%s;", k, labels[k])
		}
		return b.String()
	}
	get := func(labels map[string]string) *series {
		k := keyOf(labels)
		g, ok := groups[k]
		if !ok {
			g = &series{}
			groups[k] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			g := get(s.Labels)
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s bucket without le", f.Name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("histogram %s bad le %q", f.Name, leStr)
				}
				le = v
			}
			if g.started && (le <= g.lastLe || s.Value < g.lastCum) {
				return fmt.Errorf("histogram %s buckets not monotone at le=%s", f.Name, leStr)
			}
			g.started, g.lastLe, g.lastCum = true, le, s.Value
			if math.IsInf(le, 1) {
				g.inf, g.hasInf = s.Value, true
			}
		case f.Name + "_count":
			g := get(s.Labels)
			g.count, g.hasCnt = s.Value, true
		}
	}
	for _, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", f.Name)
		}
		if g.hasCnt && g.count != g.inf {
			return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", f.Name, g.count, g.inf)
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end := -1
		inQ := false
		for j := 1; j < len(rest); j++ {
			switch rest[j] {
			case '\\':
				if inQ {
					j++
				}
			case '"':
				inQ = !inQ
			case '}':
				if !inQ {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	// Ignore a trailing timestamp if one ever appears.
	if sp := strings.IndexByte(valStr, ' '); sp >= 0 {
		valStr = valStr[:sp]
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %s not quoted", name)
		}
		val, n, err := unquoteLabel(rest)
		if err != nil {
			return err
		}
		if _, dup := into[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		into[name] = val
		s = rest[n:]
		s = strings.TrimPrefix(s, ",")
	}
	return nil
}

// unquoteLabel reads a leading quoted string and returns the value and
// the number of input bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value in %q", s)
}
