package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hopi"
	"hopi/internal/gen"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// datasetSeed fixes the collection's shape. The collection stands in for
// the paper's DBLP snapshot, which is one dataset: between generator
// seeds its cover size differs by ±19% at 620 documents, more than any
// bound, and the acceptance rule runs each of its ten runs on another
// seed. So -seed varies what is done to the dataset (probe pairs, which
// documents writers cite and pick, where sweeps start), not the dataset.
const datasetSeed = 42

// genColl makes the workload's DBLP-like collection.
func genColl(docs int) *hopi.Collection {
	return hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, datasetSeed)))
}

// generate makes the collection five times and returns it with the
// median time of one generation, the first part of setup_s. Set-up is
// what a workload does before its first measured step, the build apart
// (every workload reports that as build_s): generate, first snapshot,
// prepare, warm up. Generation is cheap, so repeating it steadies the
// part of set-up that is not one long step.
func (r *run) generate(docs int) (*hopi.Collection, time.Duration) {
	var (
		coll  *hopi.Collection
		times []float64
	)
	for i := 0; i < 5; i++ {
		times = append(times, float64(r.timed(-1, 0, "gen.DBLP", func(int32) { coll = genColl(docs) })))
	}
	return coll, time.Duration(medianOf(times))
}

// heapBytes is the live heap after a full collection.
func heapBytes() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// warm runs the reader's rotation once and returns how long it took:
// the last part of set-up, with every cache a first query fills.
func (r *run) warm(read opFunc, cycle int) time.Duration {
	return r.timed(-1, 0, "setup.warm", func(id int32) {
		for i := 0; i < cycle; i++ {
			r.attempted.Add(1)
			if err := read(0, i, id, 0); err != nil {
				r.fail("warm-up read %d: %v", i, err)
			}
		}
	})
}

// builtInMemory reports the sizes of an index just built in memory.
// bytes_per_label is the heap the build left behind per label entry:
// what holding the index costs, not the paper's accounting of four
// integers per entry, which is 16 whatever the code does.
func (r *run) builtInMemory(ix *hopi.Index, heapBefore float64) {
	r.set("cover_entries", float64(ix.Size()), 1)
	r.set("bytes_per_label", (heapBytes()-heapBefore)/float64(max(ix.Size(), 1)), ix.Size())
}

// buildOpts are the paper's recommended options. The build seed is the
// dataset's: partitioner tie-breaks move build time by a quarter and
// cover size by 5% between seeds, which again is more than the bounds.
func buildOpts(withDist bool) hopi.Options {
	opts := hopi.DefaultOptions()
	opts.Seed = datasetSeed
	opts.WithDistance = withDist
	return opts
}

// serveExprs are the descendant-axis queries the limit-25 reader mix
// rotates through.
var serveExprs = []string{"//article//author", "//article//cite//title", "//*//author", "//article//title"}

func mustPrepare(exprs []string) []*hopi.PreparedQuery {
	out := make([]*hopi.PreparedQuery, len(exprs))
	for i, e := range exprs {
		pq, err := hopi.Prepare(e)
		if err != nil {
			panic(err) // the expressions are constants of this package
		}
		out[i] = pq
	}
	return out
}

// drain runs a prepared query on the snapshot and returns its results.
func drain(ctx context.Context, snap *hopi.Snapshot, pq *hopi.PreparedQuery, opts ...hopi.QueryOption) ([]hopi.QueryResult, string, error) {
	cur, err := snap.Run(ctx, pq, opts...)
	if err != nil {
		return nil, "", err
	}
	defer cur.Close()
	var out []hopi.QueryResult
	for cur.Next() {
		out = append(out, cur.Result())
	}
	return out, cur.Token(), cur.Err()
}

// limitReader returns the reader op of the serving windows: client c's
// i-th request is the next expression of the rotation at limit 25,
// evaluated on the index's current snapshot. limitProbe marks the
// rotation's first expression, //article//author, as the probe type.
func limitReader(r *run, ix *hopi.Index, pqs []*hopi.PreparedQuery) opFunc {
	ctx := context.Background()
	return func(c, i int, parent int32, op int64) error {
		pq := pqs[(c+i)%len(pqs)]
		var err error
		r.timed(parent, op, "hopi.Index.Run", func(int32) {
			_, _, err = drain(ctx, ix.Snapshot(), pq, hopi.QueryLimit(25))
		})
		return err
	}
}

func limitProbe(i int) bool { return i%len(serveExprs) == 0 }

// targets picks the original documents a writer cites. What an insert
// costs depends on what the cited document reaches, and a window holds
// only tens of writes, so independent draws would give each run another
// cost distribution. Instead the picks sweep the collection evenly: a
// golden-ratio stride from a seeded start, so every run of any seed
// samples the same spread of cheap and expensive documents.
type targets struct {
	docs, stride, at int
}

func newTargets(rng *rand.Rand, docs int) *targets {
	stride := max(int(0.6180339887*float64(docs)), 1)
	for gcd(stride, docs) != 1 {
		stride++
	}
	return &targets{docs: docs, stride: stride, at: rng.Intn(docs)}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (t *targets) next() string {
	t.at = (t.at + t.stride) % t.docs
	return fmt.Sprintf("pub%05d.xml", t.at)
}

// insertGen produces the in-memory writer's batches: a small article
// citing two original documents, the §6.1 insertion.
type insertGen struct {
	cited *targets
	tag   string
}

func newInsertGen(seed int64, docs int, tag string) *insertGen {
	return &insertGen{cited: newTargets(rand.New(rand.NewSource(seed)), docs), tag: tag}
}

func (g *insertGen) batch(i int) *hopi.Batch {
	b := hopi.NewBatch()
	name := fmt.Sprintf("%s-%06d.xml", g.tag, i)
	nd := hopi.NewDocument(name, "article")
	nd.AddElement(nd.Root(), "title")
	nd.AddElement(nd.Root(), "author")
	c1 := nd.AddElement(nd.Root(), "cite")
	c2 := nd.AddElement(nd.Root(), "cite")
	b.InsertDocument(nd)
	b.InsertLink(name, c1, g.cited.next(), 0)
	b.InsertLink(name, c2, g.cited.next(), 0)
	return b
}

// applyWriter returns the writer op that applies gen's i-th batch.
func applyWriter(r *run, ix *hopi.Index, g *insertGen) opFunc {
	ctx := context.Background()
	return func(_, i int, parent int32, op int64) error {
		b := g.batch(i)
		var err error
		r.timed(parent, op, "hopi.Index.Apply", func(int32) { _, err = ix.Apply(ctx, b) })
		return err
	}
}

// serving is what a workload's three windows run.
type serving struct {
	read  opFunc
	cycle int // reads per pass over the reader's rotation
	// probe marks the reads whose median latency is reported: one
	// operation type, the limit-N cursor over //article//author.
	probe func(i int) bool
	write opFunc
	rate  float64 // writes per second in the mixed window
	// afterWrite runs after each write has been timed (windowSpec)
	afterWrite func()
	// afterRO, when set, runs between the first two windows; afterMixed
	// after the second, before later windows add to any counter.
	afterRO    func(ro windowResult)
	afterMixed func(ro, mixed windowResult)
}

// serve runs the workload's three windows and reports them as the
// end-to-end read and write metrics every workload prints:
//
//   - read-only, a quarter of the time: one closed-loop reader
//     (ro_query_*);
//   - mixed, half of it: the same reader beside the writer paced at
//     s.rate (query_*; the writes' latency from their due time is
//     per-layer);
//   - write-only, a quarter: the writer alone, closed-loop (apply_*).
//     Writes are measured apart from reads because a mixed window holds
//     only tens of them and their cost shifts with whatever the reader
//     and the collector are doing at that instant. apply_ms is the mean
//     service time, one over the writer's throughput.
//
// A traced run adds a pair of short read-only windows with one and two
// readers: what a second client adds.
func (r *run) serve(s serving) {
	roDur, mixedDur, woDur := r.cfg.windows()
	ro := r.runWindow(windowSpec{name: "ro", dur: roDur, readers: 1, read: s.read, cycle: s.cycle, probe: s.probe})
	rs := ro.reads.sorted()
	r.set("ro_query_qps", ro.qps(), len(rs))
	r.set("ro_query_p50_ms", ro.probes.sorted().pctMs(0.50), len(ro.probes))
	r.set("ro_query_p90_ms", rs.pctMs(0.90), len(rs))
	r.set("ro_query_p99_ms", rs.pctMs(0.99), len(rs))
	if s.afterRO != nil {
		s.afterRO(ro)
	}

	mixed := r.runWindow(windowSpec{name: "mixed", dur: mixedDur, readers: 1, read: s.read, cycle: s.cycle, probe: s.probe, write: s.write, rate: s.rate, afterWrite: s.afterWrite})
	mr := mixed.reads.sorted()
	// a plain mean here: passes that meet a write and passes that do not
	// form two modes, and a median would jump between them
	r.set("query_qps", float64(len(mr))/mixed.elapsed.Seconds(), len(mr))
	r.set("query_p50_ms", mixed.probes.sorted().pctMs(0.50), len(mixed.probes))
	r.set("query_p90_ms", mr.pctMs(0.90), len(mr))
	due := mixed.writes.sorted()
	r.set("apply_due_p50_ms", due.pctMs(0.50), len(due))
	r.set("apply_due_p90_ms", due.pctMs(0.90), len(due))
	r.set("generator_lateness_p90_ms", mixed.lateness.sorted().pctMs(0.90), len(mixed.lateness))
	if s.afterMixed != nil {
		s.afterMixed(ro, mixed)
	}

	// the write-only window continues the writer's sequence where the
	// mixed window left it
	offset := len(mixed.writes)
	wo := r.runWindow(windowSpec{name: "wo", dur: woDur, afterWrite: s.afterWrite, write: func(c, i int, parent int32, op int64) error {
		return s.write(c, offset+i, parent, op)
	}})
	ws := wo.writes.sorted()
	// the plain mean: on the segment store a third of a writer's time goes
	// into one seal in twenty writes, which no median would see
	r.set("apply_ms", wo.writes.meanMs(), len(ws))
	r.set("apply_per_s", wo.writesPerS(), len(ws))
	r.set("apply_p50_ms", ws.pctMs(0.50), len(ws))
	r.set("apply_p90_ms", ws.pctMs(0.90), len(ws))

	if r.cfg.trace {
		one := r.runWindow(windowSpec{name: "scale1", dur: roDur / 2, readers: 1, read: s.read, cycle: s.cycle})
		two := r.runWindow(windowSpec{name: "scale2", dur: roDur / 2, readers: 2, read: s.read, cycle: s.cycle})
		if one.qps() > 0 {
			r.set("read_scaling_2_clients", two.qps()/one.qps(), len(two.reads))
		}
	}
}

// windows splits the run's measuring time between the read-only, the
// mixed and the write-only window.
func (c config) windows() (ro, mixed, wo time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	ro, wo = total/4, total/4
	return ro, total - ro - wo, wo
}
