package hopi

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hopi/internal/gen"
)

// genIndex builds a distance-aware index over a generated citation
// network — large enough that limits and pages actually cut into the
// result set.
func genIndex(t *testing.T, docs int) *Index {
	t.Helper()
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, 11)))
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 11
	ix, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func drainCursor(t *testing.T, cur *Cursor) []QueryResult {
	t.Helper()
	defer cur.Close()
	var out []QueryResult
	for cur.Next() {
		out = append(out, cur.Result())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryLimitIsPrefix is the regression test for the pre-cursor
// behavior (evaluate everything, slice afterwards): the limited result
// must be exactly a prefix of the unlimited one, plain and ranked —
// now produced WITHOUT full materialization.
func TestQueryLimitIsPrefix(t *testing.T) {
	ix := genIndex(t, 60)
	snap := ix.Snapshot()
	ctx := context.Background()
	for _, expr := range []string{"//article//author", "//abstract//para", "//*//cite"} {
		full, err := snap.QueryCtx(ctx, expr)
		if err != nil {
			t.Fatal(err)
		}
		fullRanked, err := snap.QueryCtx(ctx, expr, QueryRanked())
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 10 {
			t.Fatalf("%s: only %d matches, test collection too small", expr, len(full))
		}
		for _, limit := range []int{1, 3, 10, len(full) - 1, len(full), len(full) + 7} {
			got, err := snap.QueryCtx(ctx, expr, QueryLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if limit < len(full) {
				want = full[:limit]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s limit %d: not a prefix of the unlimited result", expr, limit)
			}
			gotRanked, err := snap.QueryCtx(ctx, expr, QueryRanked(), QueryLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			wantRanked := fullRanked
			if limit < len(fullRanked) {
				wantRanked = fullRanked[:limit]
			}
			if len(gotRanked) != len(wantRanked) {
				t.Fatalf("%s ranked limit %d: %d results, want %d", expr, limit, len(gotRanked), len(wantRanked))
			}
			for i := range gotRanked {
				if gotRanked[i].Element != wantRanked[i].Element || gotRanked[i].Score != wantRanked[i].Score {
					t.Fatalf("%s ranked limit %d: [%d] = (%d, %g), want (%d, %g)", expr, limit, i,
						gotRanked[i].Element, gotRanked[i].Score, wantRanked[i].Element, wantRanked[i].Score)
				}
			}
		}
	}
}

// TestCursorRandomizedEquivalence drains cursors with random limits
// and resume points and compares against the materialized QueryCtx
// output — the cursor==slice property, public-API edition.
func TestCursorRandomizedEquivalence(t *testing.T) {
	ix := genIndex(t, 40)
	snap := ix.Snapshot()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	for _, expr := range []string{"//article//author", "//article//cite", "//*//para"} {
		pq, err := Prepare(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranked := range []bool{false, true} {
			base := []QueryOption{}
			if ranked {
				base = append(base, QueryRanked())
			}
			full, err := snap.QueryCtx(ctx, expr, base...)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 30; trial++ {
				// random page walk: drain the whole result in random-size
				// pages via resume tokens, then compare the concatenation
				pageSize := 1 + rng.Intn(len(full)/2+1)
				var got []QueryResult
				token := ""
				for {
					opts := append(append([]QueryOption{}, base...), QueryLimit(pageSize))
					if token != "" {
						opts = append(opts, QueryResume(token))
					}
					cur, err := snap.Run(ctx, pq, opts...)
					if err != nil {
						t.Fatal(err)
					}
					page := drainCursor(t, cur)
					got = append(got, page...)
					if !cur.HasMore() {
						break
					}
					token = cur.Token()
					if len(got) > len(full) {
						t.Fatalf("%s ranked=%v: page walk overran the full result", expr, ranked)
					}
				}
				if len(got) != len(full) {
					t.Fatalf("%s ranked=%v pageSize %d: drained %d results, want %d", expr, ranked, pageSize, len(got), len(full))
				}
				for i := range got {
					if got[i].Element != full[i].Element || got[i].Score != full[i].Score {
						t.Fatalf("%s ranked=%v pageSize %d: [%d] diverged", expr, ranked, pageSize, i)
					}
				}
			}
		}
	}
}

// TestCursorTokenValidation: malformed tokens, tokens for another
// query, tokens with the wrong ranking mode, and tokens from an older
// epoch are all rejected with the right sentinel.
func TestCursorTokenValidation(t *testing.T) {
	ix := genIndex(t, 20)
	snap := ix.Snapshot()
	ctx := context.Background()
	pq, _ := Prepare("//article//author")

	cur, err := snap.Run(ctx, pq, QueryLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	drainCursor(t, cur)
	token := cur.Token()
	if !cur.HasMore() {
		t.Fatal("expected more results past limit 3")
	}

	// the genuine token resumes
	cur2, err := snap.Run(ctx, pq, QueryLimit(3), QueryResume(token))
	if err != nil {
		t.Fatal(err)
	}
	if page := drainCursor(t, cur2); len(page) != 3 {
		t.Fatalf("resumed page: %d results", len(page))
	}

	// malformed tokens
	for _, bad := range []string{"garbage", "!!!", "QUJD", ""} {
		if bad == "" {
			continue
		}
		if _, err := snap.Run(ctx, pq, QueryResume(bad)); !errors.Is(err, ErrBadToken) {
			t.Errorf("token %q: err = %v, want ErrBadToken", bad, err)
		}
	}
	// a token for a different query
	other, _ := Prepare("//article//cite")
	if _, err := snap.Run(ctx, other, QueryResume(token)); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-query token: err = %v, want ErrBadToken", err)
	}
	// a token with the wrong ranking mode
	if _, err := snap.Run(ctx, pq, QueryRanked(), QueryResume(token)); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-mode token: err = %v, want ErrBadToken", err)
	}

	// maintenance bumps the epoch: the token goes stale on new snapshots
	if err := ix.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	fresh := ix.Snapshot()
	if fresh.Epoch() != snap.Epoch()+1 {
		t.Fatalf("epoch %d after one batch on epoch %d", fresh.Epoch(), snap.Epoch())
	}
	if _, err := fresh.Run(ctx, pq, QueryResume(token)); !errors.Is(err, ErrStaleToken) {
		t.Errorf("stale token: err = %v, want ErrStaleToken", err)
	}
	// ... but the reader still holding the old snapshot can keep paging
	cur3, err := snap.Run(ctx, pq, QueryLimit(3), QueryResume(token))
	if err != nil {
		t.Fatalf("old-snapshot resume: %v", err)
	}
	drainCursor(t, cur3)
}

// TestPreparedAcrossSnapshots: one PreparedQuery serves snapshots of
// different epochs (and different indexes) — it is state-independent.
func TestPreparedAcrossSnapshots(t *testing.T) {
	ix := genIndex(t, 20)
	pq, err := Prepare("//article//author")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := drainCursor(t, mustRun(t, ix.Snapshot(), ctx, pq))
	if err := ix.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	after := drainCursor(t, mustRun(t, ix.Snapshot(), ctx, pq))
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("prepared query stopped matching: %d then %d", len(before), len(after))
	}
	if pq.String() != "//article//author" || pq.NumSteps() != 2 {
		t.Errorf("prepared metadata: %q, %d steps", pq.String(), pq.NumSteps())
	}
	steps := pq.Steps()
	if steps[0].Axis != "//" || steps[0].Tag != "article" || steps[1].Tag != "author" {
		t.Errorf("prepared steps: %+v", steps)
	}
}

func mustRun(t *testing.T, s *Snapshot, ctx context.Context, pq *PreparedQuery, opts ...QueryOption) *Cursor {
	t.Helper()
	cur, err := s.Run(ctx, pq, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestSnapshotExplain: the public Explain surface reports the tree
// test, the link-arc walk and the pushdown, and a closed cursor adds its
// plan's label entries and walked nodes to the index's counters.
func TestSnapshotExplain(t *testing.T) {
	ix := genIndex(t, 40)
	snap := ix.Snapshot()
	ctx := context.Background()

	// every author sits under its article: no label entry is read
	pqa, _ := Prepare("//article//author")
	tree, err := snap.Explain(ctx, pqa)
	if err != nil {
		t.Fatal(err)
	}
	if st := tree.Steps[1]; tree.Matches == 0 || st.Postings != 0 || st.TreeMatches != tree.Matches {
		t.Fatalf("//article//author plan: %+v, want 0 postings and %d tree matches", tree, tree.Matches)
	}

	// titles are no cite's tree descendants: the link-arc walk decides
	// them, with no label read, and a limited run walks less
	pq, _ := Prepare("//cite//title")
	full, err := snap.Explain(ctx, pq)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := snap.Explain(ctx, pq, QueryLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) != 2 || len(lim.Steps) != 2 {
		t.Fatalf("plans: %+v / %+v", full, lim)
	}
	if lim.Matches != 5 || full.Matches <= 5 {
		t.Fatalf("matches: full %d, limited %d", full.Matches, lim.Matches)
	}
	if st := full.Steps[1]; st.Postings != 0 || st.WalkMatches != st.Candidates || st.Walked == 0 {
		t.Fatalf("//cite//title plan: %+v, want every title decided by the walk and no label read", st)
	}
	if lim.Steps[1].Walked >= full.Steps[1].Walked {
		t.Fatalf("limited run walked %d nodes, full %d — pushdown missing", lim.Steps[1].Walked, full.Steps[1].Walked)
	}
	// a cursor adds its run's label entries and walked nodes to the
	// counters at Close: the walk's run reads no label, a ranked run does
	met := ix.metrics()
	drained := func(opts ...QueryOption) {
		cur := mustRun(t, snap, ctx, pq, opts...)
		for cur.Next() {
		}
		cur.Close()
	}
	entries, walked := met.queryLabelEntries.Value(), met.queryWalkNodes.Value()
	drained()
	if got := met.queryWalkNodes.Value() - walked; got != uint64(full.WalkNodes()) || got == 0 {
		t.Errorf("hopi_query_walk_nodes_total rose by %d over one run, want the plan's %d", got, full.WalkNodes())
	}
	if got := met.queryLabelEntries.Value() - entries; got != uint64(full.LabelEntries()) {
		t.Errorf("hopi_query_label_entries_total rose by %d over one run, want the plan's %d", got, full.LabelEntries())
	}
	ranked, err := snap.Explain(ctx, pq, QueryRanked())
	if err != nil {
		t.Fatal(err)
	}
	entries = met.queryLabelEntries.Value()
	drained(QueryRanked())
	if got := met.queryLabelEntries.Value() - entries; got != uint64(ranked.LabelEntries()) || got == 0 {
		t.Errorf("hopi_query_label_entries_total rose by %d over one ranked run, want the plan's %d", got, ranked.LabelEntries())
	}
	if _, err := snap.Explain(ctx, pq, QueryRanked(), QueryLimit(5)); err != nil {
		t.Fatal(err)
	}
	// Explain polls its context like every other entry point.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := snap.Explain(cancelled, pq); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled explain: err = %v, want context.Canceled", err)
	}
}
