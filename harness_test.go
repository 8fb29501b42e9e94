package hopi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/query"
	"hopi/internal/shardrouter"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// The differential harness. One seeded generator draws name-addressed
// maintenance ops, weighted to deletions; every deployment shape
// applies each op, and after every step one ground truth judges them
// all: query.Reference over the generator's own collection for the
// answers, Index.Validate for the labels.

// harnessQueries mix unranked and ranked steps, child and descendant
// steps, cross-document citations, intra-document cycles (para →
// abstract) and wildcards. Each step pages through one of the queries
// marked walk, whose answers are small enough to walk two rows at a
// time.
var harnessQueries = []struct {
	expr         string
	ranked, walk bool
}{
	{"//article//author", false, true},
	{"/article/cite", false, false},
	{"//abstract//para", false, false},
	{"//para//abstract", false, true},
	{"//cite//*", false, false},
	{"//article//author", true, true},
	{"//para//abstract", true, true},
}

// harnessDraws is one round of the generator's draws, shuffled per
// round: deletions are 5 of its 12.
var harnessDraws = []string{
	"insert document", "insert document", "insert link", "insert link",
	"close cycle", "modify", "rebuild",
	"break cycle", "delete link", "delete link", "separating delete", "general delete",
}

// deletionDraws is a deletion-only mix: every draw takes a document or
// a link away, or replaces a document.
var deletionDraws = []string{"general delete", "separating delete", "delete link", "break cycle", "modify"}

// routerDraws are the draws the router's API expresses: no modify and
// no rebuild.
var routerDraws = slices.DeleteFunc(slices.Clone(harnessDraws), func(d string) bool {
	return d == "modify" || d == "rebuild"
})

// harnessCollection is the base collection every shape and the
// generator start from: a citation network with cross-document links,
// so that a sharded collection has cross-shard links.
func harnessCollection() *Collection { return WrapCollection(gen.DBLP(gen.DefaultDBLP(36, 29))) }

func harnessOptions() Options {
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 5
	return opts
}

// system is one deployment shape under the harness.
type system interface {
	// apply runs op; settle waits until reads observe every applied op.
	apply(ctx context.Context, op scriptOp) error
	settle(t *testing.T)
	// query answers expr in full or, with pageSize > 0, as the
	// concatenation of a resume-token walk over pages of that size.
	query(ctx context.Context, expr string, ranked bool, pageSize int) ([]resultRow, error)
	// scan is one pass of a concurrent reader. It fails only on an
	// error the shape does not document as transient.
	scan(ctx context.Context) error
	// index is the *Index reads go to, or nil.
	index() *Index
}

type shape struct {
	name string
	sys  system
}

// indexSystem is an *Index, in memory or durable, or a follower whose
// writes go to its primary.
type indexSystem struct {
	w, r *Index // writes go to w and reads to r: one index but on a follower
}

func (s *indexSystem) apply(ctx context.Context, op scriptOp) error {
	_, err := s.w.Apply(ctx, buildScriptBatch(s.w, op))
	return err
}

func (s *indexSystem) settle(t *testing.T) {
	if s.r != s.w {
		waitCaughtUp(t, s.r, s.w)
	}
}

func (s *indexSystem) query(ctx context.Context, expr string, ranked bool, pageSize int) ([]resultRow, error) {
	pq, err := Prepare(expr)
	if err != nil {
		return nil, err
	}
	snap := s.r.Snapshot()
	var opts []QueryOption
	if ranked {
		opts = append(opts, QueryRanked())
	}
	if pageSize > 0 {
		opts = append(opts, QueryLimit(pageSize))
	}
	var rows []resultRow
	for token := ""; ; {
		cur, err := snap.Run(ctx, pq, append(slices.Clip(opts), QueryResume(token))...)
		if err != nil {
			return nil, err
		}
		for cur.Next() {
			r := cur.Result()
			_, local := snap.coll.c.LocalID(r.Element)
			rows = append(rows, resultRow{Doc: r.Doc, Local: local, Tag: r.Tag, Score: r.Score})
		}
		more, err := cur.HasMore(), cur.Err()
		token = cur.Token()
		cur.Close()
		if err != nil || !more {
			return rows, err
		}
	}
}

func (s *indexSystem) scan(context.Context) error { return scanSnapshot(s.r.Snapshot()) }

func (s *indexSystem) index() *Index { return s.r }

// routerSystem is a router over local shards.
type routerSystem struct {
	r *Router
}

func elemSpec(doc string, local int32) string { return fmt.Sprintf("%s:%d", doc, local) }

func (s *routerSystem) apply(ctx context.Context, op scriptOp) error {
	switch op.kind {
	case 1:
		return s.r.DeleteDocument(ctx, op.name)
	case 2:
		return s.r.InsertLink(ctx, elemSpec(op.name, op.from), elemSpec(op.target, op.to))
	case 3:
		return s.r.DeleteLink(ctx, elemSpec(op.name, op.from), elemSpec(op.target, op.to))
	case 5:
		_, err := s.r.InsertXML(ctx, op.name, scriptXML(op.target))
		return err
	}
	return fmt.Errorf("the router cannot express op kind %d", op.kind)
}

func (s *routerSystem) settle(*testing.T) {}

func (s *routerSystem) query(ctx context.Context, expr string, ranked bool, pageSize int) ([]resultRow, error) {
	var rows []resultRow
	for token := ""; ; {
		page, err := s.r.Query(ctx, expr, RouterQueryOptions{Ranked: ranked, Limit: pageSize, Resume: token})
		if err != nil {
			return nil, err
		}
		rows = append(rows, routerRows(page.Results)...)
		if token = page.NextToken; token == "" {
			return rows, nil
		}
	}
}

// scan queries through the router. A shard that cannot serve is the
// documented transient failure; nothing else is.
func (s *routerSystem) scan(ctx context.Context) error {
	for _, q := range harnessQueries {
		_, err := s.r.Query(ctx, q.expr, RouterQueryOptions{Ranked: q.ranked})
		var su *shardrouter.ShardUnavailableError
		if err != nil && !errors.As(err, &su) {
			return err
		}
	}
	return nil
}

func (s *routerSystem) index() *Index { return nil }

// generator draws name-addressed script ops over model — the
// collection every shape must hold once the ops drawn so far are
// applied — and applies each op to model as it draws it.
type generator struct {
	rng     *rand.Rand
	model   *xmlmodel.Collection
	sep     *Index     // answers Separates; holds model's documents
	closers []scriptOp // cycle-closing links, newest last
	docs    int        // documents inserted so far
}

// draw returns an op of the given draw kind, or false when the kind
// finds no target in the current collection.
func (g *generator) draw(kind string) (scriptOp, bool) {
	c := g.model
	live := c.LiveDocIndexes()
	pick := func() int { return live[g.rng.Intn(len(live))] }
	link := func(k int, from, to int32) scriptOp {
		fd, fl := c.LocalID(from)
		td, tl := c.LocalID(to)
		return scriptOp{kind: k, name: c.Docs[fd].Name, from: fl, target: c.Docs[td].Name, to: tl}
	}
	switch kind {
	case "insert document":
		g.docs++
		return scriptOp{kind: 5, name: fmt.Sprintf("new%03d.xml", g.docs), target: c.Docs[pick()].Name}, true
	case "insert link": // any element to any element, deep targets included
		from, to := pick(), pick()
		f := c.GlobalID(from, int32(g.rng.Intn(c.Docs[from].Len())))
		e := c.GlobalID(to, int32(g.rng.Intn(c.Docs[to].Len())))
		return link(2, f, e), f != e
	case "close cycle":
		if len(c.Links) == 0 {
			return scriptOp{}, false
		}
		l := c.Links[g.rng.Intn(len(c.Links))]
		op := link(2, l.To, l.From) // l.From → l.To → l.From
		g.closers = append(g.closers, op)
		return op, true
	case "break cycle":
		if len(g.closers) == 0 {
			// no closing link of this run: a link on a cycle of the
			// collection
			links := g.links()
			for _, i := range g.rng.Perm(len(links)) {
				if l := links[i]; c.Reach([]int32{l.To}, false).Has(int(l.From)) {
					return link(3, l.From, l.To), true
				}
			}
		}
		for len(g.closers) > 0 {
			op := g.closers[len(g.closers)-1]
			g.closers = g.closers[:len(g.closers)-1]
			fd, ok1 := c.DocByName(op.name)
			td, ok2 := c.DocByName(op.target)
			if ok1 && ok2 && int(op.from) < c.Docs[fd].Len() && int(op.to) < c.Docs[td].Len() &&
				slices.Contains(c.Links, xmlmodel.Link{From: c.GlobalID(fd, op.from), To: c.GlobalID(td, op.to)}) {
				op.kind = 3
				return op, true
			}
		}
		return scriptOp{}, false
	case "delete link": // inter- or intra-document
		links := g.links()
		if len(links) == 0 {
			return scriptOp{}, false
		}
		l := links[g.rng.Intn(len(links))]
		return link(3, l.From, l.To), true
	case "separating delete", "general delete":
		if len(live) <= 24 {
			return scriptOp{}, false // keep the answers non-trivial
		}
		g.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, d := range live {
			id, _ := g.sep.Collection().DocByName(c.Docs[d].Name)
			if g.sep.Separates(id) == (kind == "separating delete") {
				return scriptOp{kind: 1, name: c.Docs[d].Name}, true
			}
		}
		return scriptOp{}, false
	case "modify": // a link endpoint's document
		if len(c.Links) == 0 {
			return scriptOp{}, false
		}
		l := c.Links[g.rng.Intn(len(c.Links))]
		end := l.From
		if g.rng.Intn(2) == 0 {
			end = l.To
		}
		return scriptOp{kind: 6, name: c.Docs[c.DocOfID(end)].Name}, true
	case "rebuild":
		// A link delete in the same batch is the first write on the
		// fresh cover, with no snapshot between: it removes entries
		// from label lists the cover's owners share.
		op := scriptOp{kind: 4}
		if w, ok := g.draw("delete link"); ok {
			op.then = []scriptOp{w}
		}
		return op, true
	}
	panic("unknown draw " + kind)
}

// links lists the model's links, inter-document ones first, then the
// intra-document ones of every live document.
func (g *generator) links() []xmlmodel.Link {
	c := g.model
	links := slices.Clone(c.Links)
	for _, d := range c.LiveDocIndexes() {
		for _, l := range c.Docs[d].IntraLinks {
			links = append(links, xmlmodel.Link{From: c.GlobalID(d, l[0]), To: c.GlobalID(d, l[1])})
		}
	}
	return links
}

// applyModel applies op to c as the shapes' documentation says they
// apply it.
func applyModel(t *testing.T, c *xmlmodel.Collection, op scriptOp) {
	t.Helper()
	id := func(doc string, local int32) int32 {
		d, ok := c.DocByName(doc)
		if !ok {
			t.Fatalf("model: no document %q", doc)
		}
		return c.GlobalID(d, local)
	}
	var err error
	switch op.kind {
	case 1:
		d, _ := c.DocByName(op.name)
		c.RemoveDocument(d)
	case 2:
		err = c.AddLink(id(op.name, op.from), id(op.target, op.to))
	case 3:
		if !c.RemoveLink(id(op.name, op.from), id(op.target, op.to)) {
			err = errors.New("no such link")
		}
	case 5:
		var d *xmlmodel.Document
		var pending []xmlmodel.PendingLink
		if d, pending, err = xmlmodel.ParseDocument(op.name, scriptXML(op.target)); err != nil {
			break
		}
		idx := c.AddDocument(d)
		for _, p := range pending {
			if err = c.AddLinkByAnchor(idx, p.FromLocal, p.TargetDoc, p.Anchor); err != nil {
				break
			}
		}
	case 4:
		for _, w := range op.then {
			applyModel(t, c, w)
		}
	case 6:
		err = modifyModel(c, op.name)
	}
	if err != nil {
		t.Fatalf("model: %+v: %v", op, err)
	}
}

// modifyModel replaces document name by modifiedXML with the rule
// Index.ModifyDocument documents: each saved inter-document link is
// re-attached with an endpoint inside the document moved to the same
// local element of the new version, or to its root when the new
// version is shorter, and dropped when both ends collapse onto one
// element.
func modifyModel(c *xmlmodel.Collection, name string) error {
	old, _ := c.DocByName(name)
	var saved []xmlmodel.Link
	for _, l := range c.Links {
		if c.DocOfID(l.From) == old || c.DocOfID(l.To) == old {
			saved = append(saved, l)
		}
	}
	nd, _, err := xmlmodel.ParseDocument(name, modifiedXML)
	if err != nil {
		return err
	}
	c.RemoveDocument(old)
	idx := c.AddDocument(nd)
	moved := func(id int32) int32 {
		d, local := c.LocalID(id)
		if d != old {
			return id
		}
		if int(local) >= nd.Len() {
			local = 0
		}
		return c.GlobalID(idx, local)
	}
	for _, l := range saved {
		if from, to := moved(l.From), moved(l.To); from != to {
			if err := c.AddLink(from, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// referenceRows is query.Reference's answer as rows, sorted.
func referenceRows(t *testing.T, c *xmlmodel.Collection, expr string, ranked bool) []resultRow {
	t.Helper()
	q, err := query.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	var rows []resultRow
	for id, score := range query.Reference(c, q, ranked) {
		doc, local := c.LocalID(id)
		rows = append(rows, resultRow{Doc: c.Docs[doc].Name, Local: local, Tag: c.Tag(id), Score: score})
	}
	return sortedRows(rows)
}

func sortedRows(rows []resultRow) []resultRow {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b resultRow) int {
		if c := strings.Compare(a.Doc, b.Doc); c != 0 {
			return c
		}
		return int(a.Local - b.Local)
	})
	return rows
}

// mirror is a watch subscription's client-side result set.
type mirror struct {
	c      *watchConsumer
	ix     *Index
	expr   string
	ranked bool
}

func newMirror(t *testing.T, ix *Index, expr string, ranked bool) *mirror {
	var opts []WatchOption
	if ranked {
		opts = append(opts, WatchRanked())
	}
	return &mirror{c: subscribe(t, ix, expr, opts...), ix: ix, expr: expr, ranked: ranked}
}

// check drains the subscription until its result set equals want.
func (m *mirror) check(t *testing.T, want []resultRow, where string) {
	t.Helper()
	c := m.ix.Snapshot().coll.c
	ids := map[ElemID]float64{}
	for _, r := range want {
		d, _ := c.DocByName(r.Doc)
		ids[c.GlobalID(d, r.Local)] = r.Score
	}
	waitMatch(t, m.c, ids, fmt.Sprintf("%s: watch %s ranked=%v", where, m.expr, m.ranked))
}

// applyOp applies op to g's model and to every shape.
func applyOp(t *testing.T, g *generator, shapes []shape, op scriptOp, where string) {
	t.Helper()
	applyModel(t, g.model, op)
	for _, s := range shapes {
		if err := s.sys.apply(context.Background(), op); err != nil {
			t.Fatalf("%s: %s: %v", where, s.name, err)
		}
	}
}

// runDifferential draws rounds of draws through g and applies each op
// to the model and to every shape. After each step it checks that:
//   - the snapshot each index held across the step still answers as
//     before;
//   - every shape's answers equal the reference, and one query's limit-2
//     page walk concatenates to the full answer;
//   - the first shape's index validates, and every index holds its
//     labels entry for entry, so that all of them pass Validate (which
//     each also does after the last step, on its own);
//   - every index derives its new snapshot as a fresh pass would.
//
// after runs the caller's checks. Concurrent readers scan every shape
// throughout.
func runDifferential(t *testing.T, g *generator, shapes []shape, rounds int, draws []string, after func(step int, where string)) {
	ctx := context.Background()
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		errc = make(chan error, len(shapes))
	)
	for _, s := range shapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				start := time.Now()
				if err := s.sys.scan(ctx); err != nil {
					errc <- fmt.Errorf("%s reader: %w", s.name, err)
					return
				}
				// rest twice as long as the pass took, leaving the steps
				// most of the CPU
				time.Sleep(2 * time.Since(start))
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		select {
		case err := <-errc:
			t.Error(err)
		default:
		}
	}()

	type held struct {
		shape
		snap   *Snapshot
		oracle *snapshotOracle
	}
	var walks []int // the harnessQueries marked walk
	for i, q := range harnessQueries {
		if q.walk {
			walks = append(walks, i)
		}
	}
	found := map[string]int{}
	step := 0
	for range rounds {
		order := slices.Clone(draws)
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, kind := range breakAfterClose(order) {
			op, ok := g.draw(kind)
			if !ok {
				continue
			}
			found[kind]++
			where := fmt.Sprintf("step %d (%s %+v)", step, kind, op)
			var holds []held
			for _, s := range shapes {
				if ix := s.sys.index(); ix != nil {
					snap := ix.Snapshot()
					holds = append(holds, held{s, snap, takeOracle(t, snap)})
				}
			}
			applyOp(t, g, shapes, op, where)
			for _, s := range shapes {
				s.sys.settle(t)
			}
			// the first shape's index validates beside the other checks
			ref := shapes[0].sys.index()
			valid := make(chan error, 1)
			go func() { valid <- ref.Validate() }()
			for _, h := range holds {
				h.oracle.check(t, h.snap, h.sys.index(), where+": "+h.name)
			}
			for i, q := range harnessQueries {
				want := referenceRows(t, g.model, q.expr, q.ranked)
				for _, s := range shapes {
					label := fmt.Sprintf("%s: %s: %s ranked=%v", where, s.name, q.expr, q.ranked)
					got, err := s.sys.query(ctx, q.expr, q.ranked, 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					diffRows(t, label, sortedRows(got), want)
					if i != walks[step%len(walks)] {
						continue
					}
					walked, err := s.sys.query(ctx, q.expr, q.ranked, 2)
					if err != nil {
						t.Fatalf("%s: page walk: %v", label, err)
					}
					diffRows(t, label+": page walk", walked, got)
				}
			}
			if err := <-valid; err != nil {
				t.Fatalf("%s: %s: %v", where, shapes[0].name, err)
			}
			for _, s := range shapes {
				if ix := s.sys.index(); ix != nil {
					if ix != ref {
						assertLabelEquality(t, ix, ref, where+": "+s.name)
					}
					checkDerived(t, ix.Snapshot(), where+": "+s.name)
				}
			}
			after(step, where)
			step++
		}
	}
	for _, kind := range draws {
		if found[kind] == 0 {
			t.Errorf("%s never found a target", kind)
		}
	}
	for _, s := range shapes {
		if ix := s.sys.index(); ix != nil {
			if err := ix.Validate(); err != nil {
				t.Errorf("after the last step: %s: %v", s.name, err)
			}
		}
	}
}

// breakAfterClose moves every "break cycle" draw that precedes the
// round's "close cycle" to just after it, so that a break always has a
// cycle of the round to break and every seed finds a target for each
// kind.
func breakAfterClose(order []string) []string {
	c := slices.Index(order, "close cycle")
	if c < 0 {
		return order
	}
	var before, breaks []string
	for _, kind := range order[:c] {
		if kind == "break cycle" {
			breaks = append(breaks, kind)
		} else {
			before = append(before, kind)
		}
	}
	return slices.Concat(before, order[c:c+1], breaks, order[c+1:])
}

// harnessTail is how many batches a harness primary's publisher keeps
// in memory for followers that fall behind.
const harnessTail = 4

// harnessRounds is how many rounds of draws one harness run makes.
func harnessRounds() int {
	if testing.Short() {
		return 2
	}
	return 4
}

// indexRun picks the index shapes of one harness run. Of memory,
// durable and follower, the first present is the reference whose
// labels the others must hold entry for entry.
type indexRun struct {
	seed                      int64
	memory, durable, follower bool
	// segmented makes the durable index seal and compact inside the
	// sequence; without it the labels stay in the delta until the
	// midway checkpoint seals them.
	segmented bool
	// watch subscribes 1-, 2- and 3-step and ranked mirrors on memory
	// and one mirror on the follower.
	watch bool
	// draws is one round of the generator's draws; nil means
	// harnessDraws.
	draws []string
}

// runIndexShapes runs the harness over r's shapes. Beyond
// runDifferential's checks, after every step a caught-up follower
// holds its primary's labels, and every watch mirror drains to the
// reference. Midway, the follower's stream is cut for more batches
// than the publisher's tail keeps and the durable indexes checkpoint:
// the follower comes back through the snapshot-reset feed with a held
// snapshot intact, and the sealed files, read back through a plain
// Open, hold the reference's labels.
func runIndexShapes(t *testing.T, r indexRun) {
	rounds := harnessRounds()
	dir := t.TempDir()
	opts := harnessOptions()
	var (
		shapes             []shape
		mem, dur, fol, pri *Index
		tap                *tapTransport
		mirrors            []*mirror
	)
	durPath := filepath.Join(dir, "durable.hopi")
	if r.memory {
		var err error
		if mem, err = Build(harnessCollection(), opts); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{"memory", &indexSystem{w: mem, r: mem}})
	}
	if r.durable {
		var seg []OpenOption
		if r.segmented {
			seg = []OpenOption{SegmentThreshold(8), SegmentMaxStack(2)}
		}
		var err error
		if dur, err = Create(durPath, harnessCollection(), opts, seg...); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		shapes = append(shapes, shape{"durable", &indexSystem{w: dur, r: dur}})
	}
	if r.follower {
		var err error
		if pri, err = Create(filepath.Join(dir, "primary.hopi"), harnessCollection(), opts); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pri.Close() })
		p := startReplPrimary(t, pri, "", PublishTail(harnessTail), PublishHeartbeat(20*time.Millisecond))
		t.Cleanup(p.stop)
		tap = &tapTransport{}
		fol = followFast(t, p.streamURL(), FollowDir(t.TempDir()), FollowClient(&http.Client{Transport: tap}))
		shapes = append(shapes, shape{"follower", &indexSystem{w: pri, r: fol}})
	}
	if r.watch && mem != nil {
		mirrors = append(mirrors,
			newMirror(t, mem, "//author", false),
			newMirror(t, mem, "//article//author", false),
			newMirror(t, mem, "/article/abstract//para", false),
			newMirror(t, mem, "//para//abstract", true))
	}
	if r.watch && fol != nil {
		mirrors = append(mirrors, newMirror(t, fol, "//article//author", false))
	}
	ref := shapes[0].sys.index()
	g := &generator{rng: rand.New(rand.NewSource(r.seed)), model: harnessCollection().c, sep: shapes[0].sys.(*indexSystem).w}
	draws := r.draws
	if draws == nil {
		draws = harnessDraws
	}
	midway, reset := rounds*len(draws)/2, false
	runDifferential(t, g, shapes, rounds, draws, func(step int, where string) {
		if fol != nil {
			assertLabelEquality(t, fol, pri, where+": follower")
		}
		if step == midway {
			reset = true
			var held *Snapshot
			var oracle *snapshotOracle
			if fol != nil {
				// Cut the follower's stream while the primary commits
				// more batches than its publisher's tail keeps, and fold
				// its WAL: the follower comes back through the
				// snapshot-reset feed, and a snapshot it held survives
				// the reset.
				held = fol.Snapshot()
				oracle = takeOracle(t, held)
				tap.cut()
				// Count the batches, not the draws: a draw that finds no
				// target commits none, and a tail that still reaches
				// back to the follower resumes it without an image.
				_, cut, _ := pri.WALSize()
				for i := 0; ; i++ {
					if _, seq, _ := pri.WALSize(); seq > cut+harnessTail {
						break
					}
					if i == 10*harnessTail {
						t.Fatalf("%s: %d draws committed at most %d batches while the follower was cut", where, i, harnessTail)
					}
					kind := draws[i%len(draws)]
					if op, ok := g.draw(kind); ok {
						applyOp(t, g, shapes, op, fmt.Sprintf("%s, follower cut, op %d (%s %+v)", where, i, kind, op))
					}
				}
			}
			for _, ix := range []*Index{dur, pri} {
				if ix == nil {
					continue
				}
				if err := ix.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if fol != nil {
				tap.release()
				waitCaughtUp(t, fol, pri)
				if bootstraps(fol) < 2 {
					t.Errorf("%s: the follower did not come back through a new image", where)
				}
				oracle.check(t, held, fol, where+": follower snapshot held across the reset")
				assertLabelEquality(t, fol, pri, where+": follower after the reset")
			}
			if dur != nil {
				sealed, err := Open(durPath)
				if err != nil {
					t.Fatal(err)
				}
				assertLabelEquality(t, sealed, ref, where+": sealed files")
				sealed.Close()
			}
		}
		for _, m := range mirrors {
			m.check(t, referenceRows(t, g.model, m.expr, m.ranked), where)
		}
	})
	if !reset {
		t.Error("the sequence ended before the midway checkpoint")
	}
	if fol != nil {
		if st := fol.ReplicaStatus(); st.Role != "replica" || st.Lag != 0 || !st.Connected {
			t.Errorf("caught-up follower's status %+v", st)
		}
	}
	for _, m := range mirrors {
		if !m.c.init {
			t.Errorf("watch %s: no init event delivered", m.expr)
		}
	}
	for _, ix := range []*Index{mem, fol} {
		if r.watch && ix != nil && ix.WatchStats().IncrementalDeltas == 0 {
			t.Error("the incremental watch path never ran")
		}
	}
	if r.segmented && dur.SegmentStats().SealedSeq == 0 {
		t.Error("no seal ran inside the sequence")
	}
}

// TestDifferential runs the harness over every deployment shape at
// once: in memory; durable, sealing and compacting inside the
// sequence; a follower of a durable primary, with watch mirrors on
// memory and on the follower; and routers over 2 and over 4 local
// shards, which replay the draws their API expresses.
func TestDifferential(t *testing.T) {
	t.Run("index", func(t *testing.T) {
		runIndexShapes(t, indexRun{seed: 41, memory: true, durable: true, follower: true, segmented: true, watch: true})
	})
	t.Run("router", func(t *testing.T) {
		mem, err := Build(harnessCollection(), harnessOptions())
		if err != nil {
			t.Fatal(err)
		}
		shapes := []shape{{"memory", &indexSystem{w: mem, r: mem}}}
		var fixtures []*shardedFixture
		for _, n := range []int{2, 4} {
			f := buildSharded(t, harnessCollection(), n, "")
			if len(f.router.Map().CrossLinks) == 0 {
				t.Fatalf("%d shards: no cross-shard links", n)
			}
			fixtures = append(fixtures, f)
			shapes = append(shapes, shape{fmt.Sprintf("router over %d shards", n), &routerSystem{r: f.router}})
		}
		g := &generator{rng: rand.New(rand.NewSource(43)), model: harnessCollection().c, sep: mem}
		runDifferential(t, g, shapes, harnessRounds(), routerDraws, func(int, string) {})
		for _, f := range fixtures {
			for i, s := range f.shards {
				if err := s.Validate(); err != nil {
					t.Errorf("shard %d of %d: %v", i, len(f.shards), err)
				}
			}
		}
	})
}

// TestDifferentialDeletions runs TestDifferential's index shapes on the
// deletion-only mix: general and separating deletes, link deletes,
// cycle breaks and modifies, which read the collection's link arcs
// alone to find what a deletion touches.
func TestDifferentialDeletions(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 47, memory: true, durable: true, follower: true, segmented: true, watch: true, draws: deletionDraws})
}

// The runs below put one shape, or one pair, under the harness on a
// sequence of its own, so each shape meets more sequences than
// TestDifferential's one. Each is judged as TestDifferential is: by
// query.Reference and Validate after every step.

// TestSnapshotIsolationUnderMaintenance holds a snapshot across every
// step, in memory and on a durable index that seals and compacts
// inside the sequence.
func TestSnapshotIsolationUnderMaintenance(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		runIndexShapes(t, indexRun{seed: 7, memory: true})
	})
	t.Run("segment", func(t *testing.T) {
		runIndexShapes(t, indexRun{seed: 13, durable: true, segmented: true})
	})
}

// TestDurableStoreMatchesMemoryLabels holds a durable index whose
// labels stay in the delta until the midway checkpoint to the memory
// labels after every step, and its sealed files after the checkpoint.
func TestDurableStoreMatchesMemoryLabels(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 23, memory: true, durable: true})
}

// TestDurableQueryEquivalenceUnderChurn holds a durable index that
// seals and compacts inside the sequence to the memory labels after
// every step.
func TestDurableQueryEquivalenceUnderChurn(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 29, memory: true, durable: true, segmented: true})
}

// TestReplicationFollowerConvergesUnderLoad runs a follower that
// bootstraps from a live primary, catches up after every step and
// comes back through the snapshot-reset feed midway.
func TestReplicationFollowerConvergesUnderLoad(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 31, follower: true})
}

// TestWatchOracleEquivalence drains 1-, 2- and 3-step and ranked watch
// mirrors on a memory index to the reference after every step.
func TestWatchOracleEquivalence(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 37, memory: true, watch: true})
}

// TestWatchFollowerOracleEquivalence drains a watch mirror on a
// follower to the reference after every step, the snapshot reset
// midway included.
func TestWatchFollowerOracleEquivalence(t *testing.T) {
	runIndexShapes(t, indexRun{seed: 11, follower: true, watch: true})
}

// snapshotOracle is a deep copy of everything a snapshot answers from,
// taken before a step runs.
type snapshotOracle struct {
	lin, lout [][]twohop.Entry
	coll      []byte
	names     map[string]DocID
	answers   [][]QueryResult
}

func takeOracle(t *testing.T, s *Snapshot) *snapshotOracle {
	t.Helper()
	o := &snapshotOracle{names: map[string]DocID{}}
	cov := s.ix.Cover()
	for v := int32(0); v < int32(cov.N()); v++ {
		o.lin = append(o.lin, slices.Clone(cov.Lin(v)))
		o.lout = append(o.lout, slices.Clone(cov.Lout(v)))
	}
	o.coll = encodeColl(t, s.coll.c)
	for i, d := range s.coll.c.Docs {
		if s.coll.c.Alive(i) {
			o.names[d.Name] = DocID(i)
		}
	}
	o.answers = harnessAnswers(t, s)
	return o
}

func encodeColl(t *testing.T, c *xmlmodel.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func harnessAnswers(t *testing.T, s *Snapshot) [][]QueryResult {
	t.Helper()
	var out [][]QueryResult
	for _, q := range harnessQueries {
		var opts []QueryOption
		if q.ranked {
			opts = append(opts, QueryRanked())
		}
		res, err := s.QueryCtx(context.Background(), q.expr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// check asserts that s still answers exactly as when o was taken;
// now is the live index the step went to.
func (o *snapshotOracle) check(t *testing.T, s *Snapshot, now *Index, where string) {
	t.Helper()
	cov := s.ix.Cover()
	if cov.N() != len(o.lin) {
		t.Fatalf("%s: old snapshot's cover grew from %d to %d nodes", where, len(o.lin), cov.N())
	}
	for v := int32(0); v < int32(cov.N()); v++ {
		if !slices.Equal(cov.Lin(v), o.lin[v]) || !slices.Equal(cov.Lout(v), o.lout[v]) {
			t.Fatalf("%s: old snapshot's labels of node %d changed", where, v)
		}
	}
	if !bytes.Equal(encodeColl(t, s.coll.c), o.coll) {
		t.Fatalf("%s: old snapshot's collection changed", where)
	}
	for name, doc := range o.names {
		if got, ok := s.coll.DocByName(name); !ok || got != doc {
			t.Fatalf("%s: old snapshot resolves %q to %d, %v; want %d", where, name, got, ok, doc)
		}
	}
	for _, d := range now.Collection().Unwrap().Docs {
		if _, known := o.names[d.Name]; !known {
			if _, ok := s.coll.DocByName(d.Name); ok {
				t.Fatalf("%s: old snapshot resolves %q, inserted after it", where, d.Name)
			}
		}
	}
	if got := harnessAnswers(t, s); !reflect.DeepEqual(got, o.answers) {
		t.Fatalf("%s: old snapshot's query answers changed", where)
	}
}

// checkDerived asserts that a freshly published snapshot's derived
// state equals what a from-scratch derivation gives: the engine's tag
// lists, the cycle info, and the answers of a fresh engine.
func checkDerived(t *testing.T, s *Snapshot, where string) {
	t.Helper()
	c := s.coll.c
	byTag := c.ElementsByTag()
	var all []int32
	for tag, ids := range byTag {
		if got := s.eng.Candidates(tag); !slices.Equal(got, ids) {
			t.Fatalf("%s: engine lists %d %q elements, ElementsByTag %d", where, len(got), tag, len(ids))
		}
		all = append(all, ids...)
	}
	slices.Sort(all)
	if got := s.eng.Candidates("*"); !slices.Equal(got, all) {
		t.Fatalf("%s: engine lists %d live elements, want %d", where, len(got), len(all))
	}
	for _, tag := range []string{"article", "title", "year", "author", "abstract", "para", "cite", "section"} {
		if _, live := byTag[tag]; !live && len(s.eng.Candidates(tag)) > 0 {
			t.Fatalf("%s: engine still lists %q elements", where, tag)
		}
	}

	g := c.ElementGraph()
	on := graph.NewBitset(g.N())
	for _, members := range graph.SCC(g).Comps {
		if len(members) > 1 {
			for _, v := range members {
				on.Set(int(v))
			}
		}
	}
	for u := int32(0); u < int32(g.N()); u++ {
		if s.ix.OnCycle(u) != on.Has(int(u)) {
			t.Fatalf("%s: OnCycle(%d) = %v, a fresh SCC pass says %v", where, u, !on.Has(int(u)), on.Has(int(u)))
		}
		if !on.Has(int(u)) {
			continue
		}
		want := graph.InfDist
		d := g.BFSFrom(u)
		for _, p := range g.Pred(u) {
			if d[p] != graph.InfDist && d[p]+1 < want {
				want = d[p] + 1
			}
		}
		if got := s.ix.CycleDistance(u); got != want {
			t.Fatalf("%s: CycleDistance(%d) = %d, want %d", where, u, got, want)
		}
	}
	// ancestors and descendants of a few drawn elements, walked over the
	// snapshot's collection, against the element graph
	draw := rand.New(rand.NewSource(int64(g.N())))
	for k := 0; k < 4 && g.N() > 0; k++ {
		u := int32(draw.Intn(g.N()))
		for _, side := range []struct {
			name string
			got  []ElemID
			want graph.Bitset
		}{
			{"Ancestors", s.Ancestors(u), g.ReachingTo(u)},
			{"Descendants", s.Descendants(u), g.ReachableFrom(u)},
		} {
			side.want.Set(int(u))
			if got, want := slices.Sorted(slices.Values(side.got)), side.want.Elements(nil); !slices.Equal(got, want) {
				t.Fatalf("%s: %s(%d) = %v, the element graph says %v", where, side.name, u, got, want)
			}
		}
	}

	fresh := query.NewEngine(c, s.ix)
	for _, q := range harnessQueries {
		pq, err := query.Parse(q.expr)
		if err != nil {
			t.Fatal(err)
		}
		if q.ranked {
			got, err := s.eng.EvalRanked(pq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.EvalRanked(pq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ranked %s: derived engine %v, fresh engine %v", where, q.expr, got, want)
			}
			continue
		}
		if got, want := s.eng.Eval(pq), fresh.Eval(pq); !slices.Equal(got, want) {
			t.Fatalf("%s: %s: derived engine %v, fresh engine %v", where, q.expr, got, want)
		}
	}
}

// scanSnapshot reads everything a snapshot shares copy-on-write: every
// label list, every document's tree and intra links, the link table,
// and the query answers.
func scanSnapshot(s *Snapshot) error {
	cov := s.ix.Cover()
	sum := 0
	for v := int32(0); v < int32(cov.N()); v++ {
		sum += len(cov.Lin(v)) + len(cov.Lout(v))
	}
	if sum != s.Size() {
		return fmt.Errorf("%d label entries, snapshot size %d", sum, s.Size())
	}
	c := s.coll.c
	for i, d := range c.Docs {
		if !c.Alive(i) {
			continue
		}
		for e := int32(1); e < int32(d.Len()); e++ {
			if !d.IsTreeAncestor(0, e) || d.IsTreeAncestor(e, 0) {
				return fmt.Errorf("%s: root/element %d ancestry wrong", d.Name, e)
			}
		}
		for _, l := range d.IntraLinks {
			if int(l[0]) >= d.Len() || int(l[1]) >= d.Len() {
				return fmt.Errorf("%s: intra link %v out of range", d.Name, l)
			}
		}
	}
	for _, l := range c.Links {
		if l.From < 0 || int(l.To) >= c.NumAllocatedIDs() {
			return fmt.Errorf("link %v out of range", l)
		}
	}
	for _, q := range harnessQueries {
		var opts []QueryOption
		if q.ranked {
			opts = append(opts, QueryRanked())
		}
		a, err := s.QueryCtx(context.Background(), q.expr, opts...)
		if err != nil {
			return err
		}
		b, err := s.QueryCtx(context.Background(), q.expr, opts...)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("%s: one snapshot, two answers", q.expr)
		}
	}
	return nil
}
