package hopi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/query"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// isolationQueries mix unranked and ranked steps, cross-document
// citations, intra-document cycles (para → abstract) and wildcards.
var isolationQueries = []struct {
	expr   string
	ranked bool
}{
	{"//article//author", false},
	{"/article/cite", false},
	{"//abstract//para", false},
	{"//para//abstract", false},
	{"//cite//*", false},
	{"//article//author", true},
	{"//para//abstract", true},
}

// snapshotOracle is a deep copy of everything a snapshot answers from,
// taken before a batch runs.
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
	o.answers = isolationAnswers(t, s)
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

func isolationAnswers(t *testing.T, s *Snapshot) [][]QueryResult {
	t.Helper()
	var out [][]QueryResult
	for _, q := range isolationQueries {
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
// now is the live index the batch went to.
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
	if got := isolationAnswers(t, s); !reflect.DeepEqual(got, o.answers) {
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

	fresh := query.NewEngine(c, s.ix)
	for _, q := range isolationQueries {
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

// isolationIndex returns a distance-aware index over a small DBLP
// collection: in flat mode, or durable over sealed segments with a
// seal every few batches (each seal swaps the cover's delta maps).
func isolationIndex(t *testing.T, mode string) *Index {
	t.Helper()
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 5
	coll := WrapCollection(gen.DBLP(gen.DefaultDBLP(36, 29)))
	if mode == "flat" {
		ix, err := Build(coll, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix, err := Create(filepath.Join(t.TempDir(), "iso.hopi"), coll, opts, SegmentThreshold(500))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if !ix.ix.Cover().Seg() {
		t.Fatal("durable index does not read through segments")
	}
	return ix
}

// diffModify runs core's DiffModify — which the Batch API does not
// expose — on the live index under the write lock, publishing like
// Apply does.
func diffModify(ix *Index, doc int, nd *xmlmodel.Document) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	defer func() {
		ix.epoch.Add(1)
		ix.cur.Store(nil)
	}()
	return ix.ix.DiffModify(doc, nd)
}

// TestSnapshotIsolationUnderMaintenance drives seeded sequences of every
// maintenance kind and checks, around each batch, that the snapshot
// taken before it still answers exactly as its deep-copy oracle (labels
// of every node, collection, query answers) while the snapshot after
// it derives the same engine and cycle info as a from-scratch pass. A
// concurrent reader scans snapshots throughout, so -race sees every
// copy-on-write share.
func TestSnapshotIsolationUnderMaintenance(t *testing.T) {
	for _, mode := range []string{"flat", "segment"} {
		t.Run(mode, func(t *testing.T) {
			ix := isolationIndex(t, mode)
			var (
				wg   sync.WaitGroup
				stop atomic.Bool
				errc = make(chan error, 1)
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if err := scanSnapshot(ix.Snapshot()); err != nil {
						errc <- err
						return
					}
				}
			}()
			defer func() {
				stop.Store(true)
				wg.Wait()
				select {
				case err := <-errc:
					t.Fatal(err)
				default:
				}
			}()

			ops := isolationOps()
			const rounds = 3
			skipped := map[string]int{}
			rng := rand.New(rand.NewSource(41))
			for step := 0; step < rounds*len(ops); step++ {
				op := ops[step%len(ops)]
				before := ix.Snapshot()
				checkDerived(t, before, fmt.Sprintf("step %d (before %s)", step, op.name))
				oracle := takeOracle(t, before)
				if err := op.run(ix, rng); errors.Is(err, errSkip) {
					skipped[op.name]++
				} else if err != nil {
					t.Fatalf("step %d (%s): %v", step, op.name, err)
				}
				oracle.check(t, before, ix, fmt.Sprintf("step %d (%s)", step, op.name))
			}
			checkDerived(t, ix.Snapshot(), "final")
			for name, n := range skipped {
				if n == rounds {
					t.Errorf("%s never found a target", name)
				}
			}
			if mode == "segment" && ix.SegmentStats().SealedSeq == 0 {
				t.Error("no seal ran inside the batches")
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		})
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
		return fmt.Errorf("reader: %d label entries, snapshot size %d", sum, s.Size())
	}
	c := s.coll.c
	for i, d := range c.Docs {
		if !c.Alive(i) {
			continue
		}
		for e := int32(1); e < int32(d.Len()); e++ {
			if !d.IsTreeAncestor(0, e) || d.IsTreeAncestor(e, 0) {
				return fmt.Errorf("reader: %s: root/element %d ancestry wrong", d.Name, e)
			}
		}
		for _, l := range d.IntraLinks {
			if int(l[0]) >= d.Len() || int(l[1]) >= d.Len() {
				return fmt.Errorf("reader: %s: intra link %v out of range", d.Name, l)
			}
		}
	}
	for _, l := range c.Links {
		if l.From < 0 || int(l.To) >= c.NumAllocatedIDs() {
			return fmt.Errorf("reader: link %v out of range", l)
		}
	}
	for _, q := range isolationQueries {
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
			return fmt.Errorf("reader: %s: one snapshot, two answers", q.expr)
		}
	}
	return nil
}

// errSkip reports that an op found no target in the current state.
var errSkip = errors.New("no target")

type isolationOp struct {
	name string
	run  func(ix *Index, rng *rand.Rand) error
}

// isolationOps returns one op per maintenance kind. Each picks its
// target on the live collection, which only this goroutine touches.
func isolationOps() []isolationOp {
	var inserted int
	apply := func(ix *Index, b *Batch) error {
		_, err := ix.Apply(context.Background(), b)
		return err
	}
	live := func(ix *Index) *xmlmodel.Collection { return ix.Collection().Unwrap() }
	pickDoc := func(ix *Index, rng *rand.Rand, want func(int) bool) (int, bool) {
		docs := live(ix).LiveDocIndexes()
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		for _, d := range docs {
			if want(d) {
				return d, true
			}
		}
		return 0, false
	}
	// closers remembers the links inserted to close a cycle, for the
	// cycle-breaking delete to remove again
	var closers [][2]int32
	return []isolationOp{
		{"insert document with intra links", func(ix *Index, rng *rand.Rand) error {
			inserted++
			name := fmt.Sprintf("iso%03d.xml", inserted)
			nd := NewDocument(name, "article")
			abs := nd.AddElement(nd.Root(), "abstract")
			p := nd.AddElement(abs, "para")
			nd.AddElement(nd.Root(), "author")
			cite := nd.AddElement(nd.Root(), "cite")
			nd.AddIntraLink(p, abs) // a cycle inside the document
			b := NewBatch()
			b.InsertDocument(nd)
			if to, ok := pickDoc(ix, rng, func(int) bool { return true }); ok {
				b.InsertLink(name, cite, live(ix).Docs[to].Name, 0)
			}
			return apply(ix, b)
		}},
		{"insert cycle-closing link", func(ix *Index, rng *rand.Rand) error {
			c := live(ix)
			if len(c.Links) == 0 {
				return errSkip
			}
			l := c.Links[rng.Intn(len(c.Links))]
			b := NewBatch()
			b.InsertEdge(l.To, l.From) // l.From → l.To → l.From
			closers = append(closers, [2]int32{l.To, l.From})
			return apply(ix, b)
		}},
		{"insert link", func(ix *Index, rng *rand.Rand) error {
			from, ok := pickDoc(ix, rng, func(int) bool { return true })
			to, ok2 := pickDoc(ix, rng, func(d int) bool { return d != from })
			if !ok || !ok2 {
				return errSkip
			}
			c := live(ix)
			b := NewBatch()
			b.InsertEdge(c.GlobalID(from, int32(rng.Intn(c.Docs[from].Len()))), c.GlobalID(to, 0))
			return apply(ix, b)
		}},
		{"delete cycle-breaking link", func(ix *Index, rng *rand.Rand) error {
			c := live(ix)
			for len(closers) > 0 {
				l := closers[len(closers)-1]
				closers = closers[:len(closers)-1]
				if slices.Contains(c.Links, xmlmodel.Link{From: l[0], To: l[1]}) {
					b := NewBatch()
					b.DeleteEdge(l[0], l[1])
					return apply(ix, b)
				}
			}
			return errSkip
		}},
		{"delete link", func(ix *Index, rng *rand.Rand) error {
			c := live(ix)
			if len(c.Links) == 0 {
				return errSkip
			}
			l := c.Links[rng.Intn(len(c.Links))]
			b := NewBatch()
			b.DeleteEdge(l.From, l.To)
			return apply(ix, b)
		}},
		{"separating delete", func(ix *Index, rng *rand.Rand) error {
			d, ok := pickDoc(ix, rng, func(d int) bool { return ix.Separates(DocID(d)) })
			if !ok {
				return errSkip
			}
			b := NewBatch()
			b.DeleteDocument(DocID(d))
			return apply(ix, b)
		}},
		{"general delete", func(ix *Index, rng *rand.Rand) error {
			d, ok := pickDoc(ix, rng, func(d int) bool { return !ix.Separates(DocID(d)) })
			if !ok {
				return errSkip
			}
			b := NewBatch()
			b.DeleteDocument(DocID(d))
			return apply(ix, b)
		}},
		{"modify document", func(ix *Index, rng *rand.Rand) error {
			d, ok := pickDoc(ix, rng, func(int) bool { return true })
			if !ok {
				return errSkip
			}
			old := live(ix).Docs[d]
			nd := NewDocument(old.Name, "article")
			nd.AddElement(nd.Root(), "title")
			abs := nd.AddElement(nd.Root(), "abstract")
			nd.AddIntraLink(nd.AddElement(abs, "para"), abs)
			nd.AddElement(nd.Root(), "cite")
			b := NewBatch()
			b.ModifyDocument(DocID(d), nd)
			return apply(ix, b)
		}},
		{"diff-modify document", func(ix *Index, rng *rand.Rand) error {
			d, ok := pickDoc(ix, rng, func(d int) bool { return live(ix).Docs[d].Len() > 2 })
			if !ok {
				return errSkip
			}
			nd := live(ix).Docs[d].Clone()
			if len(nd.IntraLinks) > 0 {
				nd.IntraLinks = nd.IntraLinks[1:]
			} else {
				nd.IntraLinks = [][2]int32{{int32(nd.Len() - 1), 0}} // closes a cycle through the root
			}
			return diffModify(ix, d, nd)
		}},
		{"rebuild", func(ix *Index, rng *rand.Rand) error {
			b := NewBatch()
			b.Rebuild()
			return apply(ix, b)
		}},
	}
}

// TestTreeAncestryUnderDiffModify walks IsTreeAncestor and the intra
// links of a snapshot's document while the live index DiffModifies that
// same document (run with -race): readers only read a shared document,
// and maintenance copies it before its first write.
func TestTreeAncestryUnderDiffModify(t *testing.T) {
	coll := NewCollection()
	d := NewDocument("tree.xml", "r")
	for i := 1; i < 40; i++ {
		d.AddElement(int32((i-1)/3), "e")
	}
	coll.Add(d)
	other := NewDocument("other.xml", "r")
	cite := other.AddElement(other.Root(), "cite")
	coll.Add(other)
	if err := coll.AddLink(1, cite, 0, 0); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 3
	ix, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	var stop atomic.Bool
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				doc := ix.Snapshot().coll.c.Docs[0]
				links := len(doc.IntraLinks)
				for _, l := range doc.IntraLinks {
					links += int(l[0]) // read every shared entry
				}
				for a := int32(0); a < int32(doc.Len()); a++ {
					for b := int32(0); b < int32(doc.Len()); b++ {
						want := false
						for p := b; p >= 0; p = doc.Elements[p].Parent {
							want = want || p == a
						}
						if doc.IsTreeAncestor(a, b) != want {
							errc <- fmt.Errorf("IsTreeAncestor(%d, %d) = %v, want %v", a, b, !want, want)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		nd := ix.Collection().Unwrap().Docs[0].Clone()
		if len(nd.IntraLinks) > 0 {
			nd.IntraLinks = nil
		} else {
			nd.IntraLinks = [][2]int32{{int32(1 + i%30), 0}, {0, int32(2 + i%30)}}
		}
		if err := diffModify(ix, 0, nd); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
