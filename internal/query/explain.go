package query

import "time"

// The Mode* values name how a step ran — the thing EXPLAIN exists to
// reveal, and the mode label of the query-latency histogram. "seed" is
// the first step (candidate enumeration, no join), "child" a "/" step,
// "descendant" an unranked // step (the candidate test, streamed when
// final) and "ranked-descendant" a ranked // step (the label kernel,
// limited or not: a limited run selects its page from the finished
// step).
const (
	ModeSeed             = "seed"
	ModeChild            = "child"
	ModeDescendant       = "descendant"
	ModeRankedDescendant = "ranked-descendant"
	ModeSkipped          = "skipped" // an earlier step emptied the frontier
)

// StepPlan reports how one location step was evaluated.
type StepPlan struct {
	// Axis is "/" or "//", Tag the step's tag test.
	Axis string `json:"axis"`
	Tag  string `json:"tag"`
	// Mode is the evaluator the step ran with (Mode* constants).
	Mode string `json:"mode"`
	// Candidates is the size of the tag's candidate set.
	Candidates int `json:"candidates"`
	// FrontierIn/FrontierOut are the frontier sizes entering and
	// leaving the step. For streamed final steps FrontierOut counts
	// only the results actually emitted before the cursor stopped.
	FrontierIn  int `json:"frontierIn"`
	FrontierOut int `json:"frontierOut"`
	// Postings counts the label entries read: the frontier's Lout and
	// the tested candidates' Lin — the step's I/O proxy.
	Postings int `json:"postings"`
	// Centers is the number of distinct Lout centers of the frontier
	// (// steps only); 0 when no candidate needed them.
	Centers int `json:"centers,omitempty"`
	// TreeMatches counts the candidates of an unranked // step that the
	// tree test accepted: a proper tree ancestor in the frontier, no
	// label read.
	TreeMatches int `json:"treeMatches,omitempty"`
	// WalkMatches counts the candidates of an unranked // step that the
	// walk over the collection's link arcs decided, matched or not, with
	// no label read; Walked counts the nodes those walks visited.
	WalkMatches int `json:"walkMatches,omitempty"`
	Walked      int `json:"walked,omitempty"`
}

// LabelEntries sums the steps' Postings: the label entries the run read.
func (p *Plan) LabelEntries() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.Steps {
		n += p.Steps[i].Postings
	}
	return n
}

// WalkNodes sums the steps' Walked: the nodes the run's link-arc
// walks visited.
func (p *Plan) WalkNodes() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.Steps {
		n += p.Steps[i].Walked
	}
	return n
}

// record fills the step's summary fields; nil-safe so the non-explain
// hot path pays only a pointer test.
func (sp *StepPlan) record(mode string, cands, in, out int) {
	if sp == nil {
		return
	}
	sp.Mode = mode
	sp.Candidates = cands
	sp.FrontierIn = in
	sp.FrontierOut = out
}

// touch adds to the step's postings-scanned counter; nil-safe.
func (sp *StepPlan) touch(n int) {
	if sp != nil {
		sp.Postings += n
	}
}

// Plan is the EXPLAIN report of one query execution: which evaluator
// each step chose, how large the frontiers were, and how many posting
// entries were scanned. A plan describes an actual run — with a limit,
// the final step's numbers cover only what ran before the cursor stopped.
type Plan struct {
	Expr    string        `json:"expr"`
	Ranked  bool          `json:"ranked"`
	Limit   int           `json:"limit,omitempty"`
	Matches int           `json:"matches"` // results emitted by the run
	Elapsed time.Duration `json:"elapsedNanos"`
	Steps   []StepPlan    `json:"steps"`
}

// NewPlan pre-sizes an empty plan for q. Callers outside the package
// attach it to StreamOpts.Plan to collect per-step statistics on a
// regular (non-EXPLAIN) run — the metrics layer does this to label
// query-latency histograms by evaluation mode.
func NewPlan(q *Query, ranked bool, limit int) *Plan { return newPlan(q, ranked, limit) }

// DominantMode returns the evaluation mode of the step that produced
// the result set — the last step that actually ran — or "unknown" when
// nothing was recorded. Query-latency histograms use it as their mode
// label: the final step is where the axis and ranking surface.
func (p *Plan) DominantMode() string {
	if p == nil {
		return "unknown"
	}
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if m := p.Steps[i].Mode; m != "" && m != ModeSkipped {
			return m
		}
	}
	for i := range p.Steps {
		if p.Steps[i].Mode == ModeSkipped {
			return ModeSkipped
		}
	}
	return "unknown"
}

// newPlan pre-sizes a plan with one StepPlan per query step, axis and
// tag filled in.
func newPlan(q *Query, ranked bool, limit int) *Plan {
	p := &Plan{Expr: q.String(), Ranked: ranked, Limit: limit, Steps: make([]StepPlan, len(q.Steps))}
	for i, s := range q.Steps {
		p.Steps[i].Tag = s.Tag
		p.Steps[i].Axis = "/"
		if s.Axis == AxisDescendant {
			p.Steps[i].Axis = "//"
		}
	}
	return p
}

// step returns the i-th step's collector, or nil when no plan is being
// recorded (the hot path).
func (p *Plan) step(i int) *StepPlan {
	if p == nil {
		return nil
	}
	return &p.Steps[i]
}

// skipFrom marks steps from i on as skipped (an earlier step produced
// an empty frontier, so they never ran).
func (p *Plan) skipFrom(i int) {
	if p == nil {
		return
	}
	for ; i < len(p.Steps); i++ {
		p.Steps[i].Mode = ModeSkipped
	}
}
