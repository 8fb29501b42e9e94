package hopi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hopi/internal/storage"
)

// --- helpers ----------------------------------------------------------

// replPrimary is a durable primary serving its replication stream on a
// real TCP listener whose address survives a simulated crash/restart.
type replPrimary struct {
	ix   *Index
	pub  *Publisher
	srv  *http.Server
	addr string
}

func (p *replPrimary) streamURL() string { return "http://" + p.addr + "/repl/stream" }

// startReplPrimary creates a durable index at path and serves its
// publisher at addr ("" picks a free port).
func startReplPrimary(t *testing.T, ix *Index, addr string, opts ...PublishOption) *replPrimary {
	t.Helper()
	pub, err := ix.StartPublisher(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /repl/stream", pub)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &replPrimary{ix: ix, pub: pub, srv: srv, addr: ln.Addr().String()}
}

// stop closes the publisher (ending follower streams) and the HTTP
// server. The index is left alone — crash it or Close it separately.
func (p *replPrimary) stop() {
	p.pub.Close()
	p.srv.Close()
}

func followFast(t *testing.T, url string, opts ...FollowOption) *Index {
	t.Helper()
	fol, err := Follow(url, append([]FollowOption{
		FollowTimeout(15 * time.Second),
		FollowReconnect(5*time.Millisecond, 100*time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	return fol
}

// bootstraps returns how many state images the follower installed.
func bootstraps(fol *Index) uint64 { return fol.metrics().bootstraps.Value() }

// crashFollower simulates a follower's process death: the stream stops
// and the files are left as they are, nothing checkpointed.
func crashFollower(fol *Index) {
	fol.fol.Stop()
	fol.fol = nil
	crash(fol)
}

// waitCaughtUp blocks until the follower has applied the primary's
// committed sequence.
func waitCaughtUp(t *testing.T, fol *Index, primary *Index) {
	t.Helper()
	_, want, ok := primary.WALSize()
	if !ok {
		t.Fatal("primary is not durable")
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if fol.ReplicaStatus().AppliedSeq >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at seq %d, primary at %d (status %+v)",
		fol.ReplicaStatus().AppliedSeq, want, fol.ReplicaStatus())
}

// assertLabelEquality asserts the follower holds byte-identical
// Lin/Lout labels to the primary — the store==memory property from the
// durable tests, lifted across the replication wire.
func assertLabelEquality(t *testing.T, fol, primary *Index, label string) {
	t.Helper()
	pc := primary.ix.Cover()
	fc := fol.ix.Cover()
	if fc.N() != pc.N() {
		t.Fatalf("%s: follower has %d nodes, primary %d", label, fc.N(), pc.N())
	}
	if fc.WithDist != pc.WithDist {
		t.Fatalf("%s: WithDist %v vs %v", label, fc.WithDist, pc.WithDist)
	}
	for v := int32(0); v < int32(pc.N()); v++ {
		if !equalEntries(fc.Lin(v), pc.Lin(v)) {
			t.Fatalf("%s: Lin(%d) follower %v, primary %v", label, v, fc.Lin(v), pc.Lin(v))
		}
		if !equalEntries(fc.Lout(v), pc.Lout(v)) {
			t.Fatalf("%s: Lout(%d) follower %v, primary %v", label, v, fc.Lout(v), pc.Lout(v))
		}
	}
}

// --- acceptance: convergence under concurrent traffic ----------------

// TestReplicationFollowerConvergesUnderLoad starts a follower from
// nothing against a live primary, applies a long randomized maintenance
// script (including rebuilds, which ship as wholesale snapshots) while
// readers continuously query the follower, and asserts the follower
// converges to byte-identical cover labels once the stream quiesces.
func TestReplicationFollowerConvergesUnderLoad(t *testing.T) {
	dir := t.TempDir()
	ix, base := createDurable(t, filepath.Join(dir, "p.hopi"))
	defer ix.Close()
	// small tail + a mid-script checkpoint: exercises the tail, WAL,
	// and snapshot-reset feed paths
	p := startReplPrimary(t, ix, "", PublishTail(4), PublishHeartbeat(20*time.Millisecond))
	defer p.stop()

	fol := followFast(t, p.streamURL())

	ops := randomScript(rand.New(rand.NewSource(7)), base, 60, true)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	queryErr := make(chan error, 1)
	// readers: hammer the follower's snapshots while batches replay
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := fol.Snapshot()
				res, err := snap.Query("//article//author")
				if err != nil {
					select {
					case queryErr <- fmt.Errorf("query: %w", err):
					default:
					}
					return
				}
				// every match must be a live, correctly tagged element of
				// the snapshot's own collection
				coll := snap.Collection()
				for _, m := range res {
					if coll.Tag(m.Element) != "author" {
						select {
						case queryErr <- fmt.Errorf("match %d has tag %q", m.Element, coll.Tag(m.Element)):
						default:
						}
						return
					}
				}
			}
		}()
	}

	for i, op := range ops {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i == len(ops)/2 {
			// fold the WAL away mid-script so a lagging follower would
			// have to take the snapshot-reset path
			if err := ix.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCaughtUp(t, fol, ix)
	close(stop)
	wg.Wait()
	select {
	case err := <-queryErr:
		t.Fatal(err)
	default:
	}

	assertLabelEquality(t, fol, ix, "after quiesce")
	assertSameAnswers(t, fol, ix, "follower answers")
	if st := fol.ReplicaStatus(); st.Role != "replica" || st.Lag != 0 || !st.Connected {
		t.Fatalf("follower status %+v", st)
	}
}

// TestReplicationFollowerRestartCatchesUp stops a follower mid-stream —
// with Close, or abandoned without a checkpoint as a kill -9 leaves it —
// keeps writing past the publisher's in-memory tail, and restarts the
// follower on the same FollowDir: it recovers its own store, resumes
// after its last logged batch from the primary's WAL without a new
// image, and converges.
func TestReplicationFollowerRestartCatchesUp(t *testing.T) {
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprintf("kill=%v", kill), func(t *testing.T) {
			dir := t.TempDir()
			ix, base := createDurable(t, filepath.Join(dir, "p.hopi"))
			defer ix.Close()
			p := startReplPrimary(t, ix, "", PublishTail(4), PublishHeartbeat(20*time.Millisecond))
			defer p.stop()
			fdir := filepath.Join(dir, "follower")

			ops := randomScript(rand.New(rand.NewSource(11)), base, 30, false)
			fol := followFast(t, p.streamURL(), FollowDir(fdir))
			for i, op := range ops {
				if _, err := ix.Apply(context.Background(), buildScriptBatch(op)); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if i == 10 {
					if kill {
						crashFollower(fol)
					} else if err := fol.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// the dead follower must not have advanced past the kill point
			if fol.ReplicaStatus().Connected {
				t.Fatal("closed follower still connected")
			}
			if n := bootstraps(fol); n != 1 {
				t.Fatalf("first follower installed %d images, want 1", n)
			}

			re := followFast(t, p.streamURL(), FollowDir(fdir))
			waitCaughtUp(t, re, ix)
			if n := bootstraps(re); n != 0 {
				t.Fatalf("restarted follower installed %d images although the primary's WAL covers its gap", n)
			}
			assertLabelEquality(t, re, ix, "restarted follower")
			assertSameAnswers(t, re, ix, "restarted follower answers")
		})
	}
}

// TestReplicationFollowerDamagedStoreBootstraps: a follower directory
// whose store fails recovery — here a sidecar that does not decode — is
// replaced by a fresh image instead of failing Follow.
func TestReplicationFollowerDamagedStoreBootstraps(t *testing.T) {
	dir := t.TempDir()
	ix, base := createDurable(t, filepath.Join(dir, "p.hopi"))
	defer ix.Close()
	p := startReplPrimary(t, ix, "", PublishHeartbeat(20*time.Millisecond))
	defer p.stop()
	fdir := filepath.Join(dir, "follower")
	fol := followFast(t, p.streamURL(), FollowDir(fdir))
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fdir, "replica"+collSuffix), []byte("not a sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, op := range randomScript(rand.New(rand.NewSource(3)), base, 6, false) {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	re := followFast(t, p.streamURL(), FollowDir(fdir))
	waitCaughtUp(t, re, ix)
	if n := bootstraps(re); n != 1 {
		t.Fatalf("follower over a damaged store installed %d images, want 1", n)
	}
	assertLabelEquality(t, re, ix, "after re-bootstrap")
}

// TestReplicationFollowerWALIsPrimaryWAL: a follower logs every shipped
// batch verbatim, so over the same sequence range its WAL file is
// byte-identical to the primary's.
func TestReplicationFollowerWALIsPrimaryWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.hopi")
	// no auto-seal: the primary's log keeps every batch
	ix, base := createDurable(t, path, SegmentThreshold(-1))
	defer ix.Close()
	p := startReplPrimary(t, ix, "", PublishHeartbeat(20*time.Millisecond))
	defer p.stop()
	fdir := filepath.Join(dir, "follower")
	fol := followFast(t, p.streamURL(), FollowDir(fdir)) // image at seq 0: both logs empty
	for i, op := range randomScript(rand.New(rand.NewSource(5)), base, 14, false) {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitCaughtUp(t, fol, ix)
	digest := func(file string) [sha256.Size]byte {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", file)
		}
		return sha256.Sum256(data)
	}
	if digest(path+walSuffix) != digest(filepath.Join(fdir, "replica"+walSuffix)) {
		t.Fatal("the follower's WAL differs from the primary's over the same batches")
	}
}

// TestReplicationFollowerDirOfAnotherPrimary points a follower directory
// written by primary A at an unrelated primary B whose history reaches
// past the follower's sequence: the stored scope is not B's, so B resets
// the follower with an image instead of shipping its batches onto A's
// state.
func TestReplicationFollowerDirOfAnotherPrimary(t *testing.T) {
	dir := t.TempDir()
	fdir := filepath.Join(dir, "follower")
	insert := func(ix *Index, prefix, target string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			op := scriptOp{kind: 0, name: fmt.Sprintf("%s%02d.xml", prefix, i), target: target}
			if _, err := ix.Apply(context.Background(), buildScriptBatch(op)); err != nil {
				t.Fatal(err)
			}
		}
	}

	a, base := createDurable(t, filepath.Join(dir, "a.hopi"))
	defer a.Close()
	pa := startReplPrimary(t, a, "", PublishHeartbeat(20*time.Millisecond))
	fol := followFast(t, pa.streamURL(), FollowDir(fdir))
	insert(a, "a", base[0], 4)
	waitCaughtUp(t, fol, a)
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	pa.stop()

	b, _ := createDurable(t, filepath.Join(dir, "b.hopi"))
	defer b.Close()
	insert(b, "b", base[2], 9)
	pb := startReplPrimary(t, b, "", PublishHeartbeat(20*time.Millisecond))
	defer pb.stop()
	re := followFast(t, pb.streamURL(), FollowDir(fdir))
	waitCaughtUp(t, re, b)
	if n := bootstraps(re); n != 1 {
		t.Fatalf("follower of another primary installed %d images, want 1", n)
	}
	if _, ok := re.Snapshot().Collection().DocByName("b08.xml"); !ok {
		t.Fatal("follower does not hold primary B's documents")
	}
	assertLabelEquality(t, re, b, "after the reset")
	assertSameAnswers(t, re, b, "after the reset")
}

// TestReplicationPrimaryCrashRestart kills the primary (kill -9
// semantics: no checkpoint, no close; the simulated-crash helper from
// the durable tests), restarts it on the same address, and verifies
// the follower reconnects, resumes, and converges on post-restart
// writes.
func TestReplicationPrimaryCrashRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.hopi")
	ix, base := createDurable(t, path)
	p := startReplPrimary(t, ix, "", PublishHeartbeat(20*time.Millisecond))

	ops := randomScript(rand.New(rand.NewSource(13)), base, 24, false)
	for i := 0; i < 12; i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	fol := followFast(t, p.streamURL())
	waitCaughtUp(t, fol, ix)

	// kill -9: abandon the index without checkpoint, close the server
	addr := p.addr
	p.stop()
	crash(ix)

	re, err := Open(path, Durable())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer re.Close()
	p2 := startReplPrimary(t, re, addr, PublishHeartbeat(20*time.Millisecond))
	defer p2.stop()

	for i := 12; i < len(ops); i++ {
		if _, err := re.Apply(context.Background(), buildScriptBatch(ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitCaughtUp(t, fol, re)
	assertLabelEquality(t, fol, re, "after primary restart")
	assertSameAnswers(t, fol, re, "after primary restart")
}

// --- one encoding, WAL to follower -------------------------------------

// tapTransport records every byte a follower reads off each of its
// streams. cut breaks the live stream and holds reconnects until
// release.
type tapTransport struct {
	mu     sync.Mutex
	conns  []*bytes.Buffer
	cancel context.CancelFunc
	gate   chan struct{}
}

type tapBody struct {
	io.ReadCloser
	tt  *tapTransport
	buf *bytes.Buffer
}

func (b tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tt.mu.Lock()
	b.buf.Write(p[:n])
	b.tt.mu.Unlock()
	return n, err
}

func (tt *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.mu.Lock()
	gate := tt.gate
	tt.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	ctx, cancel := context.WithCancel(req.Context())
	resp, err := http.DefaultTransport.RoundTrip(req.WithContext(ctx))
	if err != nil {
		cancel()
		return nil, err
	}
	buf := &bytes.Buffer{}
	tt.mu.Lock()
	tt.conns = append(tt.conns, buf)
	tt.cancel = cancel
	tt.mu.Unlock()
	resp.Body = tapBody{ReadCloser: resp.Body, tt: tt, buf: buf}
	return resp, nil
}

func (tt *tapTransport) cut() {
	tt.mu.Lock()
	tt.gate = make(chan struct{})
	tt.cancel()
	tt.mu.Unlock()
}

func (tt *tapTransport) release() {
	tt.mu.Lock()
	close(tt.gate)
	tt.gate = nil
	tt.mu.Unlock()
}

// batches parses each recorded stream and returns its batch records.
func (tt *tapTransport) batches(t *testing.T) [][]storage.WALRecord {
	t.Helper()
	tt.mu.Lock()
	defer tt.mu.Unlock()
	var out [][]storage.WALRecord
	for _, buf := range tt.conns {
		var recs []storage.WALRecord
		r := bytes.NewReader(buf.Bytes())
		for {
			raw, err := storage.ReadRecord(r)
			if err != nil {
				break // a cut stream may end inside a record
			}
			if rec, err := storage.DecodeBatch(raw); err == nil {
				recs = append(recs, rec)
			}
		}
		out = append(out, recs)
	}
	return out
}

// TestReplicationStreamIsWALBytes: every batch record a follower reads
// is byte for byte the record the primary's WAL holds for that
// sequence — live from the publisher's tail, and again after the
// follower falls behind the tail and is fed from the WAL file.
func TestReplicationStreamIsWALBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.hopi")
	// no auto-seal: the log keeps every batch for the comparison
	ix, base := createDurable(t, path, SegmentThreshold(-1))
	defer ix.Close()
	p := startReplPrimary(t, ix, "", PublishTail(4), PublishHeartbeat(20*time.Millisecond))
	defer p.stop()
	tap := &tapTransport{}
	fol, err := Follow(p.streamURL(),
		FollowTimeout(15*time.Second),
		FollowReconnect(5*time.Millisecond, 50*time.Millisecond),
		FollowClient(&http.Client{Transport: tap}))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	ops := randomScript(rand.New(rand.NewSource(5)), base, 14, false)
	apply := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := ix.Apply(context.Background(), buildScriptBatch(ops[i])); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	apply(0, 2)
	waitCaughtUp(t, fol, ix)
	// drop the follower and commit past the 4-batch tail while it is away
	tap.cut()
	for fol.ReplicaStatus().Connected {
		time.Sleep(2 * time.Millisecond)
	}
	apply(2, len(ops))
	tap.release()
	waitCaughtUp(t, fol, ix)

	data, err := os.ReadFile(path + walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	logged := map[uint64][]byte{}
	for r := bytes.NewReader(data); ; {
		raw, err := storage.ReadRecord(r)
		if err != nil {
			break
		}
		rec, err := storage.DecodeBatch(raw)
		if err != nil {
			t.Fatal(err)
		}
		logged[rec.Seq] = raw
	}
	if len(logged) != len(ops) {
		t.Fatalf("WAL holds %d batches, want %d", len(logged), len(ops))
	}

	conns := tap.batches(t)
	if len(conns) != 2 {
		t.Fatalf("follower opened %d streams, want 2", len(conns))
	}
	// stream 1: batches 1-2 live from the tail; stream 2: 3-14, of
	// which only 11-14 were still in the tail, so 3 onward came from
	// the WAL
	for i, want := range [][2]uint64{{1, 2}, {3, uint64(len(ops))}} {
		recs := conns[i]
		if len(recs) != int(want[1]-want[0]+1) {
			t.Fatalf("stream %d carried %d batches, want %d..%d", i+1, len(recs), want[0], want[1])
		}
		for j, rec := range recs {
			if rec.Seq != want[0]+uint64(j) {
				t.Fatalf("stream %d batch %d has seq %d, want %d", i+1, j, rec.Seq, want[0]+uint64(j))
			}
			if !bytes.Equal(rec.Raw, logged[rec.Seq]) {
				t.Fatalf("stream %d: batch %d differs from its WAL record", i+1, rec.Seq)
			}
		}
	}
	assertLabelEquality(t, fol, ix, "after the WAL-fed catch-up")
}

// TestReplicationPublishesBatchWhoseSealFails: a batch is committed
// once its WAL append is fsynced, so it reaches the publisher even
// when the auto-seal that follows it fails — otherwise followers
// would never see it while heartbeats report zero lag.
func TestReplicationPublishesBatchWhoseSealFails(t *testing.T) {
	dir := t.TempDir()
	ix, _ := createDurable(t, filepath.Join(dir, "p.hopi"), SegmentThreshold(1))
	defer ix.Close()
	pub, err := ix.StartPublisher()
	if err != nil {
		t.Fatal(err)
	}
	ops := []scriptOp{{kind: 0, name: "s1.xml", target: "a.xml"}, {kind: 0, name: "s2.xml", target: "s1.xml"}}
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ops[0])); err != nil {
		t.Fatal(err)
	}
	setFailpoint(ix, func(step string) error {
		if step == "seal" {
			return errDiskDied
		}
		return nil
	})
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ops[1])); !errors.Is(err, errDiskDied) {
		t.Fatalf("Apply with a failing seal: err = %v, want the injected failure", err)
	}
	st := ix.ReplicaStatus()
	if st.AppliedSeq != 2 || pub.LastSeq() != st.AppliedSeq {
		t.Fatalf("committed seq %d, published seq %d", st.AppliedSeq, pub.LastSeq())
	}
}

// --- read-only contract ----------------------------------------------

func TestReplicationFollowerIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	ix, _ := createDurable(t, filepath.Join(dir, "p.hopi"))
	defer ix.Close()
	p := startReplPrimary(t, ix, "")
	defer p.stop()
	fol := followFast(t, p.streamURL())

	b := NewBatch()
	b.InsertDocument(NewDocument("x.xml", "article"))
	if _, err := fol.Apply(context.Background(), b); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Apply on follower: err = %v, want ErrReadOnlyReplica", err)
	}
	if err := fol.InsertEdge(0, 1); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("InsertEdge on follower: err = %v, want ErrReadOnlyReplica", err)
	}
	if _, err := fol.StartPublisher(); err == nil {
		t.Fatal("StartPublisher on a follower should fail")
	}
}

// --- resume-token portability ----------------------------------------

// TestReplicationTokenPortability pages through a query on one replica
// and resumes the walk on another: with sequence-derived epochs the
// token is valid on any replica that has applied the same batch, and
// the continued pages are identical.
func TestReplicationTokenPortability(t *testing.T) {
	dir := t.TempDir()
	ix, _ := createDurable(t, filepath.Join(dir, "p.hopi"))
	defer ix.Close()
	p := startReplPrimary(t, ix, "")
	defer p.stop()

	// one write so the token is minted at a non-trivial sequence
	b := NewBatch()
	d := NewDocument("extra.xml", "article")
	d.AddElement(d.Root(), "author")
	b.InsertDocument(d)
	if _, err := ix.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}

	f1 := followFast(t, p.streamURL())
	f2 := followFast(t, p.streamURL())
	waitCaughtUp(t, f1, ix)
	waitCaughtUp(t, f2, ix)

	ctx := context.Background()
	pq, err := Prepare("//author")
	if err != nil {
		t.Fatal(err)
	}
	full, err := ix.Query("//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("need >= 3 matches, have %d", len(full))
	}

	// page 1 on replica 1
	cur, err := f1.Run(ctx, pq, QueryLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	var page1 []QueryResult
	for cur.Next() {
		page1 = append(page1, cur.Result())
	}
	if !cur.HasMore() {
		t.Fatal("expected more results after page 1")
	}
	token := cur.Token()
	cur.Close()

	// primary, replica 1 and replica 2 agree on the epoch
	if e1, e2, e3 := ix.Snapshot().Epoch(), f1.Snapshot().Epoch(), f2.Snapshot().Epoch(); e1 != e2 || e2 != e3 {
		t.Fatalf("epochs diverge: primary %d, f1 %d, f2 %d", e1, e2, e3)
	}

	// resume on replica 2 — and, for reference, on the primary
	for name, target := range map[string]*Index{"replica2": f2, "primary": ix} {
		cur2, err := target.Run(ctx, pq, QueryResume(token))
		if err != nil {
			t.Fatalf("resume on %s: %v", name, err)
		}
		var rest []QueryResult
		for cur2.Next() {
			rest = append(rest, cur2.Result())
		}
		cur2.Close()
		if got, want := len(page1)+len(rest), len(full); got != want {
			t.Fatalf("resume on %s: %d + %d results, want %d total", name, len(page1), len(rest), want)
		}
		for i, m := range rest {
			if m.Element != full[len(page1)+i].Element {
				t.Fatalf("resume on %s: result %d = element %d, want %d", name, i, m.Element, full[len(page1)+i].Element)
			}
		}
	}
}

// TestStaleTokenRetryable pins the StaleTokenError matrix: on
// sequence-epoch snapshots a token from a newer epoch is retryable
// (the replica is behind), one from an older epoch is not, and
// in-memory random epochs are never retryable.
func TestStaleTokenRetryable(t *testing.T) {
	dir := t.TempDir()
	ix, _ := createDurable(t, filepath.Join(dir, "p.hopi"))
	defer ix.Close()

	ctx := context.Background()
	pq, err := Prepare("//author")
	if err != nil {
		t.Fatal(err)
	}
	old := ix.Snapshot() // epoch = seq N

	b := NewBatch()
	d := NewDocument("extra.xml", "article")
	d.AddElement(d.Root(), "author")
	b.InsertDocument(d)
	if _, err := ix.Apply(ctx, b); err != nil {
		t.Fatal(err)
	}
	fresh := ix.Snapshot() // epoch = seq N+1
	if fresh.Epoch() != old.Epoch()+1 {
		t.Fatalf("durable epochs not sequential: %d then %d", old.Epoch(), fresh.Epoch())
	}

	mint := func(s *Snapshot) string {
		cur, err := s.Run(ctx, pq, QueryLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		tok := cur.Token()
		cur.Close()
		return tok
	}

	// token from the future (replica behind): retryable
	var stale *StaleTokenError
	_, err = old.Run(ctx, pq, QueryResume(mint(fresh)))
	if !errors.As(err, &stale) || !stale.Retryable {
		t.Fatalf("future token on old snapshot: err = %v, want retryable StaleTokenError", err)
	}
	if !errors.Is(err, ErrStaleToken) {
		t.Fatalf("StaleTokenError does not match ErrStaleToken: %v", err)
	}

	// token from the past (state moved on): not retryable
	_, err = fresh.Run(ctx, pq, QueryResume(mint(old)))
	if !errors.As(err, &stale) || stale.Retryable {
		t.Fatalf("past token on fresh snapshot: err = %v, want non-retryable StaleTokenError", err)
	}

	// in-memory indexes keep random epochs: mismatches are never
	// retryable, whatever the ordering
	coll, _ := baseCollection(t)
	opts := DefaultOptions()
	opts.Seed = 1
	mem, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	memOld := mem.Snapshot()
	if err := mem.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	_, err = mem.Snapshot().Run(ctx, pq, QueryResume(mint(memOld)))
	if !errors.As(err, &stale) || stale.Retryable {
		t.Fatalf("in-memory stale token: err = %v, want non-retryable StaleTokenError", err)
	}

	// a token from a different index carries a different replication
	// scope: rejected as a bad token outright — never accepted by
	// coincidental sequence equality, never a retryable 503
	_, err = fresh.Run(ctx, pq, QueryResume(mint(mem.Snapshot())))
	if !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-index token: err = %v, want ErrBadToken", err)
	}
	_, err = mem.Snapshot().Run(ctx, pq, QueryResume(mint(fresh)))
	if !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-index token (reverse): err = %v, want ErrBadToken", err)
	}
}
