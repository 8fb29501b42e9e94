package query

import (
	"context"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
)

// benchEngine builds a moderate citation collection once per process
// for the evaluator benchmarks.
func benchEngine(b *testing.B, mode EvalMode) *Engine {
	b.Helper()
	c := gen.DBLP(gen.DefaultDBLP(120, 42))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 500_000,
		Join: core.JoinNewHBar, WithDistance: true, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix.Warm()
	e := NewEngine(c, ix)
	e.SetEvalMode(mode)
	return e
}

func benchEval(b *testing.B, mode EvalMode, expr string) {
	e := benchEngine(b, mode)
	q, err := Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkEvalSemijoinDescendant(b *testing.B) {
	benchEval(b, EvalSemijoin, "//article//author")
}

func BenchmarkEvalPairwiseDescendant(b *testing.B) {
	benchEval(b, EvalPairwise, "//article//author")
}

func BenchmarkEvalSemijoinWildcard(b *testing.B) {
	benchEval(b, EvalSemijoin, "//*//author")
}

func BenchmarkEvalPairwiseWildcard(b *testing.B) {
	benchEval(b, EvalPairwise, "//*//author")
}

func benchRanked(b *testing.B, mode EvalMode, expr string) {
	e := benchEngine(b, mode)
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

func BenchmarkEvalRankedSemijoin(b *testing.B) {
	benchRanked(b, EvalSemijoin, "//article//author")
}

func BenchmarkEvalRankedPairwise(b *testing.B) {
	benchRanked(b, EvalPairwise, "//article//author")
}

func BenchmarkEvalRankedWildcard(b *testing.B) {
	benchRanked(b, EvalSemijoin, "//*//author")
}

// benchStream drains a limit-10 cursor — the pushdown path the
// full-materialization benchmarks above are the baseline for.
func benchStream(b *testing.B, ranked bool, expr string) {
	e := benchEngine(b, EvalSemijoin)
	q, err := Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := e.Stream(ctx, q, StreamOpts{Limit: 10, Ranked: ranked})
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
	benchStream(b, false, "//article//author")
}

func BenchmarkStreamRankedLimit10(b *testing.B) {
	benchStream(b, true, "//article//author")
}

// BenchmarkStreamRankedLimit10Mixed: the final frontier carries mixed
// scores — the second // step spreads them.
func BenchmarkStreamRankedLimit10Mixed(b *testing.B) {
	benchStream(b, true, "//article//cite//author")
}
