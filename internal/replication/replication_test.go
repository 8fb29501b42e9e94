package replication

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hopi/internal/storage"
	"hopi/internal/twohop"
)

// fakeSource is a scripted primary: a full history of batches plus an
// image generator, with a cutoff below which the "WAL" no longer
// covers (simulating a checkpoint truncation).
type fakeSource struct {
	mu       sync.Mutex
	batches  []storage.WALRecord // batches[i].Seq == uint64(i+1)
	walFloor uint64              // WALTail covers sequences >= walFloor
	files    []SegFile           // shipped with every image
	images   int                 // Image() calls served
}

func (s *fakeSource) lastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.batches))
}

func (s *fakeSource) Image() (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.images++
	// The "state" is just the set of applied sequences, encoded as one
	// grow delta per batch — enough to verify replay order and seq.
	img := &Image{Seq: uint64(len(s.batches)), Files: s.files}
	img.Coll = []byte(fmt.Sprintf("state@%d", len(s.batches)))
	for i := range s.batches {
		img.Ops = append(img.Ops, twohop.CoverDelta{Kind: twohop.DeltaGrow, Node: int32(i + 1)})
	}
	return img, nil
}

func (s *fakeSource) WALTail(from uint64) ([]storage.WALRecord, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.walFloor || from > uint64(len(s.batches)) {
		return nil, false, nil
	}
	return append([]storage.WALRecord(nil), s.batches[from-1:]...), true, nil
}

func mkBatch(seq uint64) storage.WALRecord {
	rec, err := storage.DecodeBatch(storage.EncodeBatch(seq, []byte(fmt.Sprintf("coll%d", seq)),
		[]twohop.CoverDelta{{Kind: twohop.DeltaAddIn, Node: int32(seq), Center: 1, Dist: uint32(seq)}}))
	if err != nil {
		panic(err)
	}
	return rec
}

// fakeTarget records the replay calls.
type fakeTarget struct {
	mu      sync.Mutex
	boots   []uint64
	images  []*Image
	applied []storage.WALRecord
}

func (t *fakeTarget) Bootstrap(img *Image) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.boots = append(t.boots, img.Seq)
	t.images = append(t.images, img)
	return nil
}

func (t *fakeTarget) ApplyBatch(b storage.WALRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applied = append(t.applied, b)
	return nil
}

func (t *fakeTarget) Quiesce() {}

func (t *fakeTarget) appliedSeqs() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.applied))
	for i, b := range t.applied {
		out[i] = b.Seq
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTestFollower(t *testing.T, url string, target Target) *Follower {
	t.Helper()
	f := NewFollower(url, target, FollowerOptions{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

// TestBootstrapAndLiveStream: a fresh follower bootstraps from the
// image and then receives live batches in order, each the exact record
// bytes the publisher was handed.
func TestBootstrapAndLiveStream(t *testing.T) {
	src := &fakeSource{walFloor: 1}
	pub := NewPublisher(src, 0, PublisherOptions{Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(pub)
	t.Cleanup(srv.Close)
	t.Cleanup(pub.Close)

	target := &fakeTarget{}
	f := newTestFollower(t, srv.URL, target)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.Status(); got.AppliedSeq != 0 || !got.Bootstrapped {
		t.Fatalf("after bootstrap: status %+v", got)
	}

	for seq := uint64(1); seq <= 5; seq++ {
		b := mkBatch(seq)
		src.mu.Lock()
		src.batches = append(src.batches, b)
		src.mu.Unlock()
		pub.Publish(b)
	}
	waitFor(t, "5 applied batches", func() bool { return f.Status().AppliedSeq == 5 })

	target.mu.Lock()
	defer target.mu.Unlock()
	if len(target.boots) != 1 || target.boots[0] != 0 {
		t.Fatalf("bootstraps = %v, want [0]", target.boots)
	}
	for i, b := range target.applied {
		want := mkBatch(uint64(i + 1))
		if b.Seq != want.Seq || string(b.Coll) != string(want.Coll) || len(b.Ops) != 1 || b.Ops[0] != want.Ops[0] || !bytes.Equal(b.Raw, want.Raw) {
			t.Fatalf("applied[%d] = %+v, want %+v", i, b, want)
		}
	}
	if f.Status().Lag() != 0 {
		t.Fatalf("lag = %d after catch-up", f.Status().Lag())
	}
}

// TestLaggingFollowerFedFromWAL: a follower connecting with from below
// the in-memory tail is served from the WAL fallback, without a
// snapshot reset.
func TestLaggingFollowerFedFromWAL(t *testing.T) {
	src := &fakeSource{walFloor: 1}
	// tail of 2: batches 1..8 evict down to {7, 8}
	pub := NewPublisher(src, 0, PublisherOptions{TailBatches: 2, Heartbeat: 20 * time.Millisecond})
	for seq := uint64(1); seq <= 8; seq++ {
		b := mkBatch(seq)
		src.batches = append(src.batches, b)
		pub.Publish(b)
	}
	srv := httptest.NewServer(pub)
	t.Cleanup(srv.Close)
	t.Cleanup(pub.Close)

	target := &fakeTarget{}
	f := newTestFollower(t, srv.URL, target)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	// Fresh follower still bootstraps (from=0 asks for the image) ...
	waitFor(t, "caught-up follower", func() bool { return f.Status().AppliedSeq == 8 })
	if n := len(target.appliedSeqs()); n != 0 {
		t.Fatalf("bootstrap follower applied %d batches, want 0 (image covers them)", n)
	}

	// ... but a follower resuming from seq 3 (below the tail) must be
	// fed 3..8 from the WAL, not reset.
	t2 := &fakeTarget{}
	f2 := NewFollower(srv.URL, t2, FollowerOptions{BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	f2.mu.Lock()
	f2.st.Bootstrapped = true
	f2.st.AppliedSeq = 2
	f2.mu.Unlock()
	f2.Start()
	defer f2.Stop()
	waitFor(t, "wal-fed follower", func() bool { return f2.Status().AppliedSeq == 8 })
	if got := t2.appliedSeqs(); len(got) != 6 || got[0] != 3 || got[5] != 8 {
		t.Fatalf("wal-fed applied %v, want [3..8]", got)
	}
	if len(t2.boots) != 0 {
		t.Fatalf("wal-fed follower was reset with %v", t2.boots)
	}
}

// TestCheckpointTruncationForcesSnapshotReset: when neither the tail
// nor the WAL covers the requested sequence, the publisher resets the
// follower with a fresh image instead of failing.
func TestCheckpointTruncationForcesSnapshotReset(t *testing.T) {
	src := &fakeSource{walFloor: 7} // checkpoint folded batches < 7 away
	pub := NewPublisher(src, 0, PublisherOptions{TailBatches: 2, Heartbeat: 20 * time.Millisecond})
	for seq := uint64(1); seq <= 8; seq++ {
		b := mkBatch(seq)
		src.batches = append(src.batches, b)
		pub.Publish(b)
	}
	srv := httptest.NewServer(pub)
	t.Cleanup(srv.Close)
	t.Cleanup(pub.Close)

	target := &fakeTarget{}
	f := NewFollower(srv.URL, target, FollowerOptions{BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	f.mu.Lock()
	f.st.Bootstrapped = true
	f.st.AppliedSeq = 3 // needs 4, which neither tail {7,8} nor WAL (floor 7) has
	f.mu.Unlock()
	f.Start()
	defer f.Stop()
	waitFor(t, "snapshot reset", func() bool { return f.Status().AppliedSeq == 8 })
	target.mu.Lock()
	defer target.mu.Unlock()
	if len(target.boots) != 1 || target.boots[0] != 8 {
		t.Fatalf("bootstraps = %v, want one at seq 8", target.boots)
	}
}

// TestReconnectResumesAfterRestart: the follower survives the primary
// going away and resumes from its applied position when it returns.
func TestReconnectResumesAfterRestart(t *testing.T) {
	src := &fakeSource{walFloor: 1}
	pub := NewPublisher(src, 0, PublisherOptions{Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewUnstartedServer(pub)
	srv.Start()

	target := &fakeTarget{}
	f := newTestFollower(t, srv.URL, target)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	b1 := mkBatch(1)
	src.mu.Lock()
	src.batches = append(src.batches, b1)
	src.mu.Unlock()
	pub.Publish(b1)
	waitFor(t, "first batch", func() bool { return f.Status().AppliedSeq == 1 })

	// primary dies
	srv.CloseClientConnections()
	srv.Close()
	waitFor(t, "disconnect", func() bool { return !f.Status().Connected })

	// primary returns at a new address (its history intact, one batch
	// ahead); point the follower there by... the URL is fixed, so
	// restart on the same listener is what real deployments do — here
	// we assert the reconnect loop by restarting a fresh server and a
	// fresh publisher on the same URL is not possible with httptest, so
	// instead verify the follower keeps retrying and reports the error.
	st := f.Status()
	if st.LastError == "" {
		t.Fatal("disconnected follower reports no error")
	}
	if st.AppliedSeq != 1 || !st.Bootstrapped {
		t.Fatalf("disconnected follower lost its position: %+v", st)
	}
}

// quiesceTarget counts Quiesce calls on top of the recording target.
type quiesceTarget struct {
	fakeTarget
	quiesces atomic.Int64
}

func (t *quiesceTarget) Quiesce() { t.quiesces.Add(1) }

// TestQuiesceOncePerBufferedBurst scripts the wire directly: a burst of
// batch records flushed as one chunk must replay fully before a single
// Quiesce fires — one quiesce per burst, not one per batch. This is
// the contract follower-side fan-out (snapshot republish, live-query
// notification) relies on to stay off the per-batch replay path.
func TestQuiesceOncePerBufferedBurst(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		if err := writeImage(w, &Image{Seq: 1, Coll: []byte("img@1")}); err != nil {
			return
		}
		fl.Flush()
		// wait until the test has observed the post-bootstrap quiesce,
		// then deliver the whole burst in one write so the reader
		// buffers every record before the follower's next read
		<-release
		var buf bytes.Buffer
		for seq := uint64(2); seq <= 6; seq++ {
			buf.Write(mkBatch(seq).Raw)
		}
		w.Write(buf.Bytes())
		fl.Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)

	target := &quiesceTarget{}
	newTestFollower(t, srv.URL, target)

	waitFor(t, "bootstrap quiesce", func() bool { return target.quiesces.Load() == 1 })
	close(release)
	waitFor(t, "burst replayed", func() bool { return len(target.appliedSeqs()) == 5 })
	waitFor(t, "burst quiesce", func() bool { return target.quiesces.Load() >= 2 })
	// allow a beat for any spurious extra quiesce to surface
	time.Sleep(50 * time.Millisecond)
	if got := target.quiesces.Load(); got != 2 {
		t.Fatalf("quiesces = %d, want exactly 2 (bootstrap + one per burst)", got)
	}
	if seqs := target.appliedSeqs(); len(seqs) != 5 || seqs[0] != 2 || seqs[4] != 6 {
		t.Fatalf("applied sequences %v", seqs)
	}
}

// TestBadRecordNeverSkipped streams a batch record with one payload
// byte flipped, and a record of a kind the follower does not know. The
// follower must neither apply nor skip past either: the record ends the
// stream, shows in LastError, and the reconnect asks for the same
// sequence again, which then applies from intact bytes.
func TestBadRecordNeverSkipped(t *testing.T) {
	good := mkBatch(2)
	flipped := bytes.Clone(good.Raw)
	flipped[len(flipped)-1] ^= 0x40
	for _, c := range []struct {
		name, why string
		bad       []byte
	}{
		{"flipped byte", "checksum", flipped},
		{"unknown kind", "unknown record kind", storage.AppendRecord(nil, []byte{0x7f}, good.Raw[storage.RecordHeader+1:])},
	} {
		t.Run(c.name, func(t *testing.T) {
			var conns atomic.Int32
			froms := make(chan string, 4)
			release := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				froms <- r.URL.Query().Get("from")
				if conns.Add(1) == 1 {
					writeImage(w, &Image{Seq: 1})
					w.Write(c.bad)
				} else {
					// hold the reconnect until the test has read LastError,
					// which a successful connect clears
					<-release
					w.Write(good.Raw)
				}
				w.(http.Flusher).Flush()
				<-r.Context().Done()
			}))
			t.Cleanup(srv.Close)
			t.Cleanup(func() {
				select {
				case <-release:
				default:
					close(release)
				}
			})

			target := &fakeTarget{}
			f := newTestFollower(t, srv.URL, target)
			waitFor(t, c.why+" reported", func() bool {
				return strings.Contains(f.Status().LastError, c.why)
			})
			if got := target.appliedSeqs(); len(got) != 0 {
				t.Fatalf("bad record applied: %v", got)
			}
			if first, again := <-froms, <-froms; first != "0" || again != "2" {
				t.Fatalf("stream requests from=%s then from=%s, want 0 then 2", first, again)
			}
			close(release)
			waitFor(t, "batch 2 from intact bytes", func() bool { return f.Status().AppliedSeq == 2 })
			target.mu.Lock()
			defer target.mu.Unlock()
			if len(target.applied) != 1 || !bytes.Equal(target.applied[0].Raw, good.Raw) {
				t.Fatalf("applied %+v", target.applied)
			}
		})
	}
}

// TestImageStreamsInChunks lowers the chunk size below the shipped
// files' sizes: the image must cross the wire as a header plus chunk
// records none larger than the bound, and reassemble exactly.
func TestImageStreamsInChunks(t *testing.T) {
	// restored last, once the server has waited out its handlers
	old := imageChunk
	t.Cleanup(func() { imageChunk = old })
	imageChunk = 64
	files := []SegFile{
		{Name: "000001.seg", Data: bytes.Repeat([]byte("sealed-"), 50)},
		{Name: "000002.seg", Data: []byte("one chunk")},
		{Name: "000003.seg", Data: bytes.Repeat([]byte{0xab}, 3*64)},
	}
	src := &fakeSource{walFloor: 1, files: files}
	for seq := uint64(1); seq <= 20; seq++ {
		src.batches = append(src.batches, mkBatch(seq))
	}
	want, _ := src.Image()

	var wire bytes.Buffer
	if err := writeImage(&wire, want); err != nil {
		t.Fatal(err)
	}
	for records := 0; wire.Len() > 0; records++ {
		rec, err := storage.ReadRecord(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if records > 0 && (rec[storage.RecordHeader] != kindChunk || len(rec)-storage.RecordHeader-1 > imageChunk) {
			t.Fatalf("record %d: kind %#x, %d data bytes (chunk bound %d)", records, rec[storage.RecordHeader], len(rec)-storage.RecordHeader-1, imageChunk)
		}
	}

	pub := NewPublisher(src, 20, PublisherOptions{Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(pub)
	t.Cleanup(srv.Close)
	t.Cleanup(pub.Close)
	target := &fakeTarget{}
	f := newTestFollower(t, srv.URL, target)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	if got := target.images[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("reassembled image %+v, want %+v", got, want)
	}
}
