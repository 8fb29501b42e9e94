package hopi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/shardrouter"
)

// resultRow is the shard-independent identity of one query result:
// what must be byte-identical between the router and a single
// unsharded index over the same collection.
type resultRow struct {
	Doc   string
	Local int32
	Tag   string
	Score float64
}

func singleRows(ix *Index, res []QueryResult) []resultRow {
	c := ix.Collection().Unwrap()
	out := make([]resultRow, len(res))
	for i, r := range res {
		_, local := c.LocalID(r.Element)
		out[i] = resultRow{Doc: r.Doc, Local: local, Tag: r.Tag, Score: r.Score}
	}
	return out
}

func routerRows(res []RouterResult) []resultRow {
	out := make([]resultRow, len(res))
	for i, r := range res {
		out[i] = resultRow{Doc: r.Doc, Local: r.Local, Tag: r.Tag, Score: r.Score}
	}
	return out
}

func diffRows(t *testing.T, label string, got, want []resultRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

type shardedFixture struct {
	single *Index
	shards []*Index
	router *Router
}

// buildSharded stands up the same collection twice: once as a single
// unsharded index (the reference answer) and once split over numShards
// shard primaries behind a router.
func buildSharded(t *testing.T, coll *Collection, numShards int, dir string) *shardedFixture {
	t.Helper()
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 7

	single, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildShardMap(coll, numShards, opts)
	if err != nil {
		t.Fatal(err)
	}
	parts := SplitCollection(coll, m)
	shards := make([]*Index, numShards)
	conns := make([]ShardConn, numShards)
	mapPath := ""
	for i, p := range parts {
		if dir != "" {
			shards[i], err = Create(filepath.Join(dir, fmt.Sprintf("shard%d", i)), p, opts)
		} else {
			shards[i], err = Build(p, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalShard(fmt.Sprintf("s%d", i), shards[i])
	}
	if dir != "" {
		mapPath = filepath.Join(dir, "shardmap.json")
	}
	router, err := NewRouter(conns, m, mapPath)
	if err != nil {
		t.Fatal(err)
	}
	f := &shardedFixture{single: single, shards: shards, router: router}
	t.Cleanup(func() {
		for _, s := range f.shards {
			s.Close()
		}
	})
	return f
}

func (f *shardedFixture) compare(t *testing.T, expr string, ranked bool) {
	t.Helper()
	ctx := context.Background()
	var qopts []QueryOption
	if ranked {
		qopts = append(qopts, QueryRanked())
	}
	want, err := f.single.QueryCtx(ctx, expr, qopts...)
	if err != nil {
		t.Fatalf("%s single: %v", expr, err)
	}
	page, err := f.router.Query(ctx, expr, RouterQueryOptions{Ranked: ranked})
	if err != nil {
		t.Fatalf("%s router: %v", expr, err)
	}
	if page.NextToken != "" {
		t.Fatalf("%s: unlimited query returned a resume token", expr)
	}
	diffRows(t, fmt.Sprintf("%s ranked=%v", expr, ranked), routerRows(page.Results), singleRows(f.single, want))
}

// TestRouterEquivalenceStatic: plain and ranked answers from the
// router match a single unsharded index over a citation network, for
// every shard count and a range of expressions (descendant chains,
// child steps, wildcards).
func TestRouterEquivalenceStatic(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(48, 11)))
	exprs := []string{
		"//article//author", "//article//cite", "//*//para",
		"//article/title", "//abstract//para", "//inproceedings//author",
	}
	for _, shards := range []int{1, 2, 3, 4} {
		f := buildSharded(t, coll, shards, "")
		if m := f.router.Map(); len(m.CrossLinks) == 0 && shards > 1 {
			t.Fatalf("%d shards: no cross-shard links — fixture exercises nothing", shards)
		}
		for _, expr := range exprs {
			f.compare(t, expr, false)
			f.compare(t, expr, true)
		}
	}
}

// TestRouterCyclicSelfMatch: a //e//e self-match that exists only
// because of a genuine link cycle must survive sharding even when the
// cycle crosses shards.
func TestRouterCyclicSelfMatch(t *testing.T) {
	coll := WrapCollection(gen.Random(gen.RandomConfig{
		Docs: 24, MaxElems: 7, Links: 40, Seed: 5, LinkCycle: true,
	}))
	for _, shards := range []int{2, 3} {
		f := buildSharded(t, coll, shards, "")
		for _, expr := range []string{"//e", "//r//e", "//e//e", "//r//r", "//*//e"} {
			f.compare(t, expr, false)
			f.compare(t, expr, true)
		}
	}
}

// TestRouterPagedEquivalence: the concatenation of router pages walked
// via vector resume tokens equals the single-index answer, plain and
// ranked, for random page sizes.
func TestRouterPagedEquivalence(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(40, 13)))
	f := buildSharded(t, coll, 3, "")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for _, expr := range []string{"//article//author", "//article//cite"} {
		for _, ranked := range []bool{false, true} {
			var qopts []QueryOption
			if ranked {
				qopts = append(qopts, QueryRanked())
			}
			want, err := f.single.QueryCtx(ctx, expr, qopts...)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := singleRows(f.single, want)
			for trial := 0; trial < 10; trial++ {
				pageSize := 1 + rng.Intn(len(want)/2+1)
				var got []resultRow
				token := ""
				for {
					page, err := f.router.Query(ctx, expr, RouterQueryOptions{
						Ranked: ranked, Limit: pageSize, Resume: token,
					})
					if err != nil {
						t.Fatalf("%s ranked=%v page %d: %v", expr, ranked, len(got)/pageSize, err)
					}
					got = append(got, routerRows(page.Results)...)
					if page.NextToken == "" {
						break
					}
					token = page.NextToken
					if len(got) > len(want) {
						t.Fatalf("%s ranked=%v: page walk overran", expr, ranked)
					}
				}
				diffRows(t, fmt.Sprintf("%s ranked=%v pageSize=%d", expr, ranked, pageSize), got, wantRows)
			}
		}
	}
}

// helpers mirroring router writes onto the single reference index
// through its batch API.

func addXMLToIndex(ix *Index, name string, data []byte) (DocID, []string, error) {
	b := NewBatch()
	if err := b.InsertXML(name, data); err != nil {
		return 0, nil, err
	}
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		return 0, nil, err
	}
	return res.Results[0].Doc, res.Results[0].Unresolved, nil
}

func insertLinkBySpec(ix *Index, from, to string) error {
	fd, fl, _, err := ParseElementSpec(from)
	if err != nil {
		return err
	}
	td, tl, anchor, err := ParseElementSpec(to)
	if err != nil {
		return err
	}
	b := NewBatch()
	if anchor != "" {
		b.InsertLinkByAnchor(fd, fl, td, anchor)
	} else {
		b.InsertLink(fd, fl, td, tl)
	}
	_, err = ix.Apply(context.Background(), b)
	return err
}

// TestRouterTokenMatrix: the cross-shard resume-token failure modes.
func TestRouterTokenMatrix(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(30, 19)))
	dir := t.TempDir()
	f := buildSharded(t, coll, 2, dir)
	ctx := context.Background()

	page, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if page.NextToken == "" {
		t.Fatal("expected a resume token past limit 5")
	}
	token := page.NextToken

	// the genuine token resumes
	if _, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Limit: 5, Resume: token}); err != nil {
		t.Fatalf("genuine resume: %v", err)
	}
	// malformed
	if _, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Resume: "garbage"}); !errors.Is(err, ErrBadToken) {
		t.Errorf("malformed token: %v, want ErrBadToken", err)
	}
	// wrong query / wrong mode
	if _, err := f.router.Query(ctx, "//article//cite", RouterQueryOptions{Resume: token}); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-query token: %v, want ErrBadToken", err)
	}
	if _, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Ranked: true, Resume: token}); !errors.Is(err, ErrBadToken) {
		t.Errorf("cross-mode token: %v, want ErrBadToken", err)
	}
	// wrong scope: a token from a different router (different shard
	// identities) is rejected outright, not misread as staleness
	other := buildSharded(t, coll, 2, "")
	otherPage, err := other.router.Query(ctx, "//article//author", RouterQueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Resume: otherPage.NextToken}); !errors.Is(err, ErrBadToken) {
		t.Errorf("wrong-scope token: %v, want ErrBadToken", err)
	}

	// a same-shard write (no map change) retires the token via the
	// shard epoch; durable shards are ahead of the token, so final
	byShard := map[int][]string{}
	for n, e := range f.router.Map().Docs {
		byShard[e.Shard] = append(byShard[e.Shard], n)
	}
	var a, b string
	for _, list := range byShard {
		if len(list) >= 2 {
			a, b = list[0], list[1]
			break
		}
	}
	if a == "" {
		t.Fatal("no shard holds two documents")
	}
	if err := f.router.InsertLink(ctx, a+":0", b); err != nil {
		t.Fatalf("same-shard link insert: %v", err)
	}
	_, err = f.router.Query(ctx, "//article//author", RouterQueryOptions{Resume: token})
	var st *StaleTokenError
	if !errors.As(err, &st) || !errors.Is(err, ErrStaleToken) {
		t.Fatalf("post-write resume: %v, want StaleTokenError", err)
	}
	if st.Retryable {
		t.Fatalf("shard ahead of token must not be retryable: %+v", st)
	}

	// token replay across a full shard-tier restart: WAL replay
	// restores the same sequence epochs, so an outstanding token keeps
	// working against the reopened shards
	fresh, err := f.router.Query(ctx, "//article//author", RouterQueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	restartTok := fresh.NextToken
	for _, s := range f.shards {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	conns := make([]ShardConn, len(f.shards))
	for i := range f.shards {
		re, err := Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)), Durable())
		if err != nil {
			t.Fatal(err)
		}
		f.shards[i] = re // fixture cleanup closes the reopened ones
		conns[i] = NewLocalShard(fmt.Sprintf("s%d", i), re)
	}
	m, err := LoadShardMap(filepath.Join(dir, "shardmap.json"))
	if err != nil {
		t.Fatal(err)
	}
	router2, err := NewRouter(conns, m, "")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := router2.Query(ctx, "//article//author", RouterQueryOptions{Limit: 5, Resume: restartTok})
	if err != nil {
		t.Fatalf("post-restart resume: %v", err)
	}
	if len(resumed.Results) == 0 {
		t.Fatal("post-restart resume returned nothing")
	}
}

// shardMemoHits sums the shards' memo hits for one table ("closure" or
// "delivery").
func (f *shardedFixture) shardMemoHits(table string) uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.metrics().shardMemo[table].hits.Value()
	}
	return n
}

// TestRouterCachedVsUncached: the memos must be invisible to answers.
// After every write the first query on the new cut fills the shards'
// memos and the router's endpoint graph, and a repeat reads them back;
// both must equal the unsharded index's answer. Concurrent readers keep
// the memoized paths hot, so -race sees fills, singleflight waits, hits
// and fresh snapshots racing live queries.
func TestRouterCachedVsUncached(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(30, 31)))
	f := buildSharded(t, coll, 3, "")
	if len(f.router.Map().CrossLinks) == 0 {
		t.Fatal("fixture has no cross-shard links — the memos exercise nothing")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	exprs := []string{"//article//author", "//article//cite"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := f.router.Query(ctx, exprs[(w+i)%len(exprs)], RouterQueryOptions{Ranked: w == 0})
				var su *shardrouter.ShardUnavailableError
				if err != nil && !errors.As(err, &su) {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	names := []string{}
	for n := range f.router.Map().Docs {
		names = append(names, n)
	}
	sort.Strings(names)

	for step := 0; step < 12; step++ {
		switch rng.Intn(3) {
		case 0, 1: // insert a document citing an existing one
			name := fmt.Sprintf("cvu%03d.xml", step)
			xml := []byte(fmt.Sprintf(
				`<article><title>t%d</title><author>a%d</author><cite href=%q/></article>`,
				step, step, names[rng.Intn(len(names))]))
			if _, err := f.router.InsertXML(ctx, name, xml); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if _, _, err := addXMLToIndex(f.single, name, xml); err != nil {
				t.Fatalf("step %d single insert: %v", step, err)
			}
			names = append(names, name)
		case 2: // add a link (maybe cross-shard)
			from := names[rng.Intn(len(names))] + ":0"
			to := names[rng.Intn(len(names))]
			if err := f.router.InsertLink(ctx, from, to); err != nil {
				t.Fatalf("step %d link: %v", step, err)
			}
			if err := insertLinkBySpec(f.single, from, to); err != nil {
				t.Fatalf("step %d single link: %v", step, err)
			}
		}
		for _, expr := range exprs {
			for _, ranked := range []bool{false, true} {
				f.compare(t, expr, ranked) // fills, unless a reader got there first
				f.compare(t, expr, ranked) // reads back
			}
		}
	}
	close(stop)
	wg.Wait()

	if ctr := f.router.Unwrap().Counters(); ctr.ClosureCacheHits == 0 {
		t.Error("router never reused an endpoint graph over the whole run")
	}
	for _, table := range []string{"closure", "delivery"} {
		if f.shardMemoHits(table) == 0 {
			t.Errorf("shards never reused a memoized %s over the whole run", table)
		}
	}
}

// TestRouterClosureCacheCounters: a repeated identical query against a
// quiescent cut reuses the router's endpoint graph (no closure round)
// and the shards' memoized delivery tables; a write makes the next
// query meet a new cut. The counters surface on the router's /stats
// under their family names.
func TestRouterClosureCacheCounters(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(36, 37)))
	f := buildSharded(t, coll, 2, "")
	if len(f.router.Map().CrossLinks) == 0 {
		t.Fatal("fixture has no cross-shard links")
	}
	ctx := context.Background()
	r := f.router.Unwrap()

	if _, err := f.router.Query(ctx, "//article//cite", RouterQueryOptions{Ranked: true}); err != nil {
		t.Fatal(err)
	}
	first := r.Counters()
	if first.StepRPCs == 0 || first.ClosureRPCs == 0 || first.DeliverRPCs == 0 {
		t.Errorf("first query skipped a round: %+v", first)
	}
	if first.ClosureCacheMisses != 1 || first.ClosureCacheHits != 0 {
		t.Errorf("cold query: %+v, want exactly one endpoint-graph miss", first)
	}
	deliveryHits := f.shardMemoHits("delivery")

	if _, err := f.router.Query(ctx, "//article//cite", RouterQueryOptions{Ranked: true}); err != nil {
		t.Fatal(err)
	}
	second := r.Counters()
	if second.ClosureCacheHits != first.ClosureCacheHits+1 || second.ClosureRPCs != first.ClosureRPCs {
		t.Errorf("second identical query ran a closure round:\nfirst  %+v\nsecond %+v", first, second)
	}
	if f.shardMemoHits("delivery") <= deliveryHits {
		t.Error("second identical query recomputed every delivery table")
	}

	// a write advances the owning shard's epoch; the next query must
	// meet the new cut, never serve the old one
	names := make([]string, 0, len(f.router.Map().Docs))
	for n := range f.router.Map().Docs {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := f.router.InsertLink(ctx, names[0]+":0", names[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.Query(ctx, "//article//cite", RouterQueryOptions{Ranked: true}); err != nil {
		t.Fatal(err)
	}
	third := r.Counters()
	if third.ClosureCacheMisses <= second.ClosureCacheMisses || third.ClosureRPCs <= second.ClosureRPCs {
		t.Errorf("post-write query reused the old cut's endpoint graph:\nsecond %+v\nthird  %+v", second, third)
	}

	// the counters ride the router's /stats, its registry as JSON
	var buf bytes.Buffer
	if err := r.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(buf.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	rpcs, _ := stats["hopi_router_shard_rpcs_total"].(map[string]any)
	for key, want := range map[string]uint64{
		"hopi_router_closure_cache_hits_total":   third.ClosureCacheHits,
		"hopi_router_closure_cache_misses_total": third.ClosureCacheMisses,
		"rpc=step":                               third.StepRPCs,
		"rpc=closure":                            third.ClosureRPCs,
		"rpc=deliver":                            third.DeliverRPCs,
		"hopi_router_wire_bytes_in_total":        third.WireBytesIn,
		"hopi_router_wire_bytes_out_total":       third.WireBytesOut,
	} {
		got, ok := stats[key]
		if strings.HasPrefix(key, "rpc=") {
			got, ok = rpcs[key]
		}
		if !ok || got != float64(want) {
			t.Errorf("/stats %s = %v, want %d", key, got, want)
		}
	}
}

// TestShardClosureMemoBounded: a cross-shard link only edits the
// router's map, so the source document's shard publishes no new
// snapshot, yet every link changes that shard's endpoint lists and the
// next query asks its snapshot for a closure under new spec lists. The
// snapshot must keep only the latest closure per ranking mode, and the
// answers must stay equal to the unsharded index's.
func TestShardClosureMemoBounded(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(30, 31)))
	f := buildSharded(t, coll, 3, "")
	m := f.router.Map()
	if len(m.CrossLinks) == 0 {
		t.Fatal("fixture has no cross-shard links")
	}
	// k receives a cross link, so it holds in-endpoints; the links
	// added below give it out-endpoints to j.
	k := m.Docs[m.CrossLinks[0].ToDoc].Shard
	j := (k + 1) % 3
	var onK, onJ []string
	for name, e := range m.Docs {
		switch e.Shard {
		case k:
			onK = append(onK, name)
		case j:
			onJ = append(onJ, name)
		}
	}
	sort.Strings(onK)
	sort.Strings(onJ)
	const links = 8
	if len(onK) < links || len(onJ) == 0 {
		t.Fatalf("shard %d holds %d documents, shard %d %d", k, len(onK), j, len(onJ))
	}

	ctx := context.Background()
	epoch := f.shards[k].Snapshot().Epoch()
	closureRPCs := f.router.Unwrap().Counters().ClosureRPCs
	for i := 0; i < links; i++ {
		from, to := onK[i]+":0", onJ[i%len(onJ)]
		if err := f.router.InsertLink(ctx, from, to); err != nil {
			t.Fatal(err)
		}
		if err := insertLinkBySpec(f.single, from, to); err != nil {
			t.Fatal(err)
		}
		for _, ranked := range []bool{false, true} {
			f.compare(t, "//article//author", ranked)
		}
	}
	s := f.shards[k].Snapshot()
	if s.Epoch() != epoch {
		t.Fatalf("shard %d was written to (epoch %d → %d); the test needs a shard that is not", k, epoch, s.Epoch())
	}
	if got := f.router.Unwrap().Counters().ClosureRPCs - closureRPCs; got < 2*links {
		t.Fatalf("%d closure RPCs over %d map versions in two modes; the memo was not exercised", got, links)
	}
	for mode := range s.memo.closures {
		if n := s.memo.closures[mode].Len(); n > 1 {
			t.Errorf("shard %d's snapshot holds %d closures for withDist=%v, want at most 1", k, n, mode == 1)
		}
	}
}

// TestShardDeliveryMemoSkipsUnknownTags: the tag of a delivery table is
// the client's, so queries naming tags no element carries must not grow
// the shards' memos; known tags are still memoized.
func TestShardDeliveryMemoSkipsUnknownTags(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(30, 31)))
	f := buildSharded(t, coll, 3, "")
	ctx := context.Background()
	tables := func() int {
		n := 0
		for _, s := range f.shards {
			n += s.Snapshot().memo.tables.Len()
		}
		return n
	}
	for _, ranked := range []bool{false, true} {
		f.compare(t, "//article//author", ranked)
	}
	known := tables()
	if known == 0 {
		t.Fatal("no delivery table memoized for a known tag")
	}
	deliverRPCs := f.router.Unwrap().Counters().DeliverRPCs
	for i := 0; i < 40; i++ {
		page, err := f.router.Query(ctx, fmt.Sprintf("//article//nosuch%d", i), RouterQueryOptions{Ranked: i%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Results) != 0 {
			t.Fatalf("unknown tag matched %d elements", len(page.Results))
		}
	}
	if f.router.Unwrap().Counters().DeliverRPCs == deliverRPCs {
		t.Fatal("no deliver round ran for the unknown tags; the memo was not exercised")
	}
	if got := tables(); got != known {
		t.Errorf("delivery memos hold %d tables after unknown-tag queries, want %d", got, known)
	}
}

// TestRouterRetryableStaleOnLaggingShard: a shard restored behind the
// token's sequence epoch (a lagging replica or a shard mid-replay)
// yields a RETRYABLE stale error — the serving tier's cue for 503 +
// Retry-After rather than a final 400.
func TestRouterRetryableStaleOnLaggingShard(t *testing.T) {
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(24, 23)))
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 7
	m, err := BuildShardMap(coll, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	parts := SplitCollection(coll, m)
	paths := make([]string, 2)
	for i, p := range parts {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		ix, err := Create(paths[i], p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// snapshot shard 0's on-disk state (the path is a file-set prefix)
	// before any writes
	oldDir := filepath.Join(dir, "old")
	oldCopy := filepath.Join(oldDir, "shard0")
	if out, err := exec.Command("sh", "-c",
		fmt.Sprintf("mkdir -p %s && cp -r %s* %s/", oldDir, paths[0], oldDir)).CombinedOutput(); err != nil {
		t.Fatalf("cp: %v: %s", err, out)
	}

	open := func(path string) *Index {
		t.Helper()
		ix, err := Open(path, Durable())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	shard0, shard1 := open(paths[0]), open(paths[1])
	router, err := NewRouter([]ShardConn{
		NewLocalShard("s0", shard0), NewLocalShard("s1", shard1),
	}, m, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// advance shard 0 past the old copy with a same-shard write
	var s0docs []string
	for n, e := range m.Docs {
		if e.Shard == 0 {
			s0docs = append(s0docs, n)
		}
	}
	if len(s0docs) < 2 {
		t.Fatal("shard 0 holds fewer than two documents")
	}
	sort.Strings(s0docs)
	if err := router.InsertLink(ctx, s0docs[0]+":0", s0docs[1]); err != nil {
		t.Fatal(err)
	}
	page, err := router.Query(ctx, "//article//author", RouterQueryOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if page.NextToken == "" {
		t.Fatal("expected a resume token")
	}
	shard0.Close()
	shard1.Close()

	// restart with shard 0 rolled back to the pre-write state
	lag0, fresh1 := open(oldCopy), open(paths[1])
	defer lag0.Close()
	defer fresh1.Close()
	router2, err := NewRouter([]ShardConn{
		NewLocalShard("s0", lag0), NewLocalShard("s1", fresh1),
	}, m, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = router2.Query(ctx, "//article//author", RouterQueryOptions{Resume: page.NextToken})
	var st *StaleTokenError
	if !errors.As(err, &st) {
		t.Fatalf("lagging-shard resume: %v, want StaleTokenError", err)
	}
	if !st.Retryable {
		t.Fatalf("shard behind a sequence-epoch token must be retryable: %+v", st)
	}
}
