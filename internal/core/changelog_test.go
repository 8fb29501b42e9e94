package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hopi/internal/storage"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

func chainDoc(name string, elems int) *xmlmodel.Document {
	d := xmlmodel.NewDocument(name, "root")
	for i := 1; i < elems; i++ {
		d.AddElement(int32(i-1), "node")
	}
	return d
}

func recordCollection(t *testing.T, rng *rand.Rand, docs int) *xmlmodel.Collection {
	t.Helper()
	c := xmlmodel.NewCollection()
	for i := 0; i < docs; i++ {
		c.AddDocument(chainDoc(fmt.Sprintf("d%02d.xml", i), 2+rng.Intn(4)))
	}
	for i := 0; i < docs-1; i++ {
		if err := c.AddLink(c.GlobalID(i, 1), c.GlobalID(i+1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestChangeLogReplayReproducesState asserts the recording contract:
// replaying a batch's ChangeLog — collection ops onto a copy of the
// pre-batch collection, cover deltas onto a copy of the pre-batch
// cover — reproduces the post-batch state exactly, label for label.
func TestChangeLogReplayReproducesState(t *testing.T) {
	for _, withDist := range []bool{false, true} {
		t.Run(fmt.Sprintf("withDist=%v", withDist), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			coll := recordCollection(t, rng, 6)
			opts := DefaultOptions()
			opts.WithDistance = withDist
			opts.Seed = 2
			ix, err := Build(coll, opts)
			if err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 30; step++ {
				collBefore := ix.coll.Clone()
				coverBefore := ix.cover.Clone()

				log := ix.StartRecording()
				var opErr error
				switch rng.Intn(5) {
				case 0:
					_, opErr = ix.InsertDocument(chainDoc(fmt.Sprintf("new%03d.xml", step), 2+rng.Intn(3)))
				case 1:
					// link two random live roots
					live := ix.coll.LiveDocIndexes()
					a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
					if a != b {
						opErr = ix.InsertEdge(ix.coll.GlobalID(a, 0), ix.coll.GlobalID(b, 1))
						// duplicate intra/inter links are possible; ignore
						// "exists" errors by retrying as a no-op
					}
				case 2:
					live := ix.coll.LiveDocIndexes()
					if len(live) > 2 {
						_, opErr = ix.DeleteDocument(live[rng.Intn(len(live))])
					}
				case 3:
					if len(ix.coll.Links) > 0 {
						l := ix.coll.Links[rng.Intn(len(ix.coll.Links))]
						opErr = ix.DeleteEdge(l.From, l.To)
					}
				case 4:
					opErr = ix.Rebuild()
				}
				ix.StopRecording()
				if opErr != nil {
					t.Fatalf("step %d: %v", step, opErr)
				}

				// replay the log onto the pre-state copies
				if err := ReplayCollOps(collBefore, log.Coll); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if log.Rebuilt {
					coverBefore = ix.cover.Clone() // snapshot path; deltas superseded
				} else {
					coverBefore.Grow(collBefore.NumAllocatedIDs())
					coverBefore.Apply(log.Cover)
				}

				if got, want := collBefore.NumAllocatedIDs(), ix.coll.NumAllocatedIDs(); got != want {
					t.Fatalf("step %d: replayed collection has %d IDs, live has %d", step, got, want)
				}
				for i := range collBefore.Docs {
					if collBefore.Alive(i) != ix.coll.Alive(i) {
						t.Fatalf("step %d: doc %d liveness differs", step, i)
					}
				}
				if got, want := len(collBefore.Links), len(ix.coll.Links); got != want {
					t.Fatalf("step %d: replayed %d links, live %d", step, got, want)
				}
				if got, want := coverBefore.N(), ix.cover.N(); got != want {
					t.Fatalf("step %d: replayed cover over %d nodes, live %d", step, got, want)
				}
				for v := int32(0); v < int32(ix.cover.N()); v++ {
					if !entriesEq(coverBefore.Lin(v), ix.cover.Lin(v)) {
						t.Fatalf("step %d: Lin(%d): replay %v, live %v", step, v, coverBefore.Lin(v), ix.cover.Lin(v))
					}
					if !entriesEq(coverBefore.Lout(v), ix.cover.Lout(v)) {
						t.Fatalf("step %d: Lout(%d): replay %v, live %v", step, v, coverBefore.Lout(v), ix.cover.Lout(v))
					}
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("final state invalid: %v", err)
			}
		})
	}
}

func entriesEq(a, b []twohop.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCollOpWireRoundTrip pins the ChangeLog wire encoding shared by
// the WAL and the replication stream.
func TestCollOpWireRoundTrip(t *testing.T) {
	d := xmlmodel.NewDocument("w.xml", "article")
	d.AddElement(0, "title")
	d.AddIntraLink(0, 1)
	ops := []CollOp{
		{Kind: CollAddDoc, Doc: d},
		{Kind: CollAddLink, From: 3, To: 9},
		{Kind: CollRemoveLink, From: 3, To: 9},
		{Kind: CollRemoveDoc, DocIdx: 2},
	}
	b, err := EncodeCollOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCollOps(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("%d ops decoded, want %d", len(got), len(ops))
	}
	for i, op := range got {
		if op.Kind != ops[i].Kind || op.DocIdx != ops[i].DocIdx || op.From != ops[i].From || op.To != ops[i].To {
			t.Fatalf("op %d = %+v, want %+v", i, op, ops[i])
		}
	}
	if got[0].Doc.Name != "w.xml" || got[0].Doc.Len() != 2 || len(got[0].Doc.IntraLinks) != 1 {
		t.Fatalf("decoded doc %+v", got[0].Doc)
	}
	// empty stream: nil bytes, nil ops
	if b, err := EncodeCollOps(nil); err != nil || b != nil {
		t.Fatalf("EncodeCollOps(nil) = %v, %v", b, err)
	}
	if ops, err := DecodeCollOps(nil); err != nil || ops != nil {
		t.Fatalf("DecodeCollOps(nil) = %v, %v", ops, err)
	}
}

// TestCoverDeltaWireRoundTrip pins the 13-byte binary delta records a
// ChangeLog's cover stream travels as inside a batch record, next to
// the collection-op stream EncodeCollOps produces.
func TestCoverDeltaWireRoundTrip(t *testing.T) {
	ops := []twohop.CoverDelta{
		{Kind: twohop.DeltaGrow, Node: 12},
		{Kind: twohop.DeltaAddIn, Node: 3, Center: 7, Dist: 2},
		{Kind: twohop.DeltaAddOut, Node: 2147483647, Center: 0, Dist: 4294967295},
		{Kind: twohop.DeltaRemoveOut, Node: 0, Center: 5},
		{Kind: twohop.DeltaClearAll},
	}
	coll, err := EncodeCollOps([]CollOp{{Kind: CollRemoveDoc, DocIdx: 1}})
	if err != nil {
		t.Fatal(err)
	}
	empty := storage.EncodeBatch(7, coll, nil)
	b := storage.EncodeBatch(7, coll, ops)
	if len(b)-len(empty) != 13*len(ops) {
		t.Fatalf("encoded %d delta bytes, want %d", len(b)-len(empty), 13*len(ops))
	}
	rec, err := storage.DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 7 || len(rec.Ops) != len(ops) {
		t.Fatalf("decoded seq %d with %d deltas, want seq 7 with %d", rec.Seq, len(rec.Ops), len(ops))
	}
	for i := range ops {
		if rec.Ops[i] != ops[i] {
			t.Fatalf("delta %d = %+v, want %+v", i, rec.Ops[i], ops[i])
		}
	}
	if got, err := DecodeCollOps(rec.Coll); err != nil || len(got) != 1 || got[0].Kind != CollRemoveDoc || got[0].DocIdx != 1 {
		t.Fatalf("collection stream decoded as %+v, %v", got, err)
	}
	if _, err := storage.DecodeBatch(b[:len(b)-5]); err == nil {
		t.Fatal("truncated delta stream decoded without error")
	}
	if rec, err := storage.DecodeBatch(empty); err != nil || len(rec.Ops) != 0 {
		t.Fatalf("empty delta stream decoded as %v, %v", rec.Ops, err)
	}
}
