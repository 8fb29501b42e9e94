package query

import (
	"context"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
)

// benchEngine builds a distance-aware citation collection of docs
// documents for the evaluator benchmarks.
func benchEngine(b *testing.B, docs int) *Engine {
	b.Helper()
	c := gen.DBLP(gen.DefaultDBLP(docs, 42))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 500_000,
		Join: core.JoinNewHBar, WithDistance: true, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return NewEngine(c, ix)
}

func benchEval(b *testing.B, expr string) {
	e := benchEngine(b, 120)
	q, err := Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEvalDescendant(b *testing.B) {
	benchEval(b, "//article//author")
}

func BenchmarkEvalWildcard(b *testing.B) {
	benchEval(b, "//*//author")
}

// BenchmarkEvalThreeStep: a title is no cite's tree descendant, so the
// final step is the one step of these queries the tree test does not
// answer; the link-arc walk does, one link from a citing cite.
func BenchmarkEvalThreeStep(b *testing.B) {
	benchEval(b, "//article//cite//title")
}

// BenchmarkEvalNoMatch: no cite is a title's descendant, and a cite's
// backward walk over the citation links never meets a title, so the
// walk spends its budget and the step falls back to X and the labels.
func BenchmarkEvalNoMatch(b *testing.B) {
	benchEval(b, "//title//cite")
}

func benchRanked(b *testing.B, e *Engine, expr string) {
	q, err := Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalRanked(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalRanked(b *testing.B) {
	benchRanked(b, benchEngine(b, 120), "//article//author")
}

func BenchmarkEvalRankedWildcard(b *testing.B) {
	benchRanked(b, benchEngine(b, 120), "//*//author")
}

// BenchmarkRankedSelfMatch: the frontier holds the step's own
// candidates, so a candidate scoring no more than a third of its own
// score reads the links into its tree path and one label per link for
// its shortest cycle.
func BenchmarkRankedSelfMatch(b *testing.B) {
	benchRanked(b, benchEngine(b, 300), "//article//article")
}

// benchStream drains a limited cursor, which stops where the
// full-materialization benchmarks above go on.
func benchStream(b *testing.B, ranked bool, expr string, limit int) {
	e := benchEngine(b, 120)
	q, err := Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := e.Stream(ctx, q, StreamOpts{Limit: limit, Ranked: ranked})
		if err != nil {
			b.Fatal(err)
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}

func BenchmarkStreamLimit10(b *testing.B) {
	benchStream(b, false, "//article//author", 10)
}

func BenchmarkStreamRankedLimit10(b *testing.B) {
	benchStream(b, true, "//article//author", 10)
}

// BenchmarkStreamRankedLimit10Mixed: the final frontier carries mixed
// scores — the second // step spreads them.
func BenchmarkStreamRankedLimit10Mixed(b *testing.B) {
	benchStream(b, true, "//article//cite//author", 10)
}

// BenchmarkStreamThreeStepLimit25: a limit-25 page of the step the
// link-arc walk answers.
func BenchmarkStreamThreeStepLimit25(b *testing.B) {
	benchStream(b, false, "//article//cite//title", 25)
}
