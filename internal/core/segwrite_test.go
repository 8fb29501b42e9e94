package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hopi/internal/segment"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// TestSegmentWritePathMatchesFlat feeds the same seeded document and
// link inserts to a flat index and to a segment-mode twin that seals
// its delta every few steps. Every step must emit the same CoverDelta
// stream on both — what the WAL logs and followers replay — and the
// labels must be equal at the end: the sealed read path (block lookup,
// merged views, the hoisted distance loops of IntegrateLink) may change
// how labels are fetched, never what the maintenance writes or in what
// order.
func TestSegmentWritePathMatchesFlat(t *testing.T) {
	for _, withDist := range []bool{false, true} {
		t.Run(fmt.Sprintf("dist=%v", withDist), func(t *testing.T) {
			build := func() *Index {
				ix, err := Build(citeCollection(rand.New(rand.NewSource(31)), 40), Options{
					Partitioner: PartNodeCapped, NodeCap: 30, Join: JoinNewHBar, WithDistance: withDist, Seed: 31,
				})
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			flat, seg := build(), build()
			store, err := segment.CreateStore(t.TempDir(), withDist, segment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq := uint64(0)
			seal := func(recs [segment.NumFamilies][]segment.Rec) *twohop.Base {
				seq++
				cov := seg.Cover()
				st, err := store.Seal(seq, cov.N(), int64(cov.Size()), recs)
				if err != nil {
					t.Fatal(err)
				}
				return twohop.NewBase(st)
			}
			seg.AdoptSegmentBase(seal(seg.Cover().FullRecords()), seg.Cover().N(), seg.Cover().Size())

			rng := rand.New(rand.NewSource(32))
			for step := 0; step < 80; step++ {
				// a link between two existing elements, or a new document
				// citing an existing one; the draw is shared by both sides
				n := int32(flat.Collection().NumAllocatedIDs())
				from, to, cited := rng.Int31n(n), rng.Int31n(n), rng.Int31n(n)
				newDoc := step%3 != 2
				var logs [2]*ChangeLog
				for i, ix := range []*Index{flat, seg} {
					logs[i] = ix.StartRecording()
					if newDoc {
						nd := xmlmodel.NewDocument(fmt.Sprintf("w%03d.xml", step), "article")
						nd.AddElement(0, "cite")
						nd.AddElement(1, "note")
						di, err := ix.InsertDocument(nd)
						if err != nil {
							t.Fatal(err)
						}
						from, to = ix.Collection().GlobalID(di, 1), cited
					}
					if err := ix.InsertEdge(from, to); err != nil {
						t.Fatal(err)
					}
					ix.StopRecording()
				}
				if !reflect.DeepEqual(logs[0].Cover, logs[1].Cover) {
					t.Fatalf("step %d: CoverDelta streams differ:\nflat    %v\nsegment %v", step, logs[0].Cover, logs[1].Cover)
				}
				if step%7 == 6 {
					seg.SealSwapBase(seal(seg.Cover().DeltaRecords()))
				}
			}
			if got := len(store.Current().Segs); got < 8 {
				t.Fatalf("only %d segments sealed", got)
			}
			fc, sc := flat.Cover(), seg.Cover()
			if fc.N() != sc.N() || fc.Size() != sc.Size() {
				t.Fatalf("flat cover %d nodes %d labels, segment cover %d nodes %d labels", fc.N(), fc.Size(), sc.N(), sc.Size())
			}
			for v := int32(0); v < int32(fc.N()); v++ {
				if !entriesEq(fc.Lin(v), sc.Lin(v)) || !entriesEq(fc.Lout(v), sc.Lout(v)) {
					t.Fatalf("labels of node %d differ: Lin %v vs %v, Lout %v vs %v", v, fc.Lin(v), sc.Lin(v), fc.Lout(v), sc.Lout(v))
				}
			}
			if err := seg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
