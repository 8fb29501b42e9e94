package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hopi/internal/storage"
)

// Target is the follower-side state the stream is replayed into.
// Calls arrive strictly in order from a single goroutine: a Bootstrap
// establishes state at Image.Seq, each ApplyBatch advances it by
// exactly one sequence. Another Bootstrap may arrive at any time (the
// publisher resets followers that lag past its retained history).
// Quiesce is called whenever no further record is already buffered on
// the connection — the moment to publish derived state (snapshots)
// once per burst instead of once per batch, so replay keeps pace with
// the primary under write storms.
type Target interface {
	Bootstrap(img *Image) error
	ApplyBatch(rec storage.WALRecord) error
	Quiesce()
}

// FollowerOptions tunes a Follower; the zero value picks defaults.
type FollowerOptions struct {
	// Client issues the stream requests (default http.DefaultClient;
	// the stream is long-lived, so the client must not set an overall
	// request timeout).
	Client *http.Client
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults
	// 100ms / 5s; each failed attempt doubles the delay).
	BackoffMin, BackoffMax time.Duration
}

func (o *FollowerOptions) defaults() {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
}

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// AppliedSeq is the last batch sequence replayed into the target.
	AppliedSeq uint64
	// PrimarySeq is the primary's last committed sequence as of the
	// most recent record; PrimarySeq - AppliedSeq is the replication lag
	// in batches.
	PrimarySeq uint64
	// Bootstrapped reports that the target holds a consistent state.
	Bootstrapped bool
	// Connected reports a currently open stream.
	Connected bool
	// LastContact is the arrival time of the most recent record.
	LastContact time.Time
	// LastError is the most recent stream failure ("" when none).
	LastError string
}

// Lag returns the replication lag in batches.
func (s Status) Lag() uint64 {
	if s.PrimarySeq <= s.AppliedSeq {
		return 0
	}
	return s.PrimarySeq - s.AppliedSeq
}

// Follower connects to a primary's /repl/stream endpoint, replays the
// records into its Target, and reconnects with exponential backoff,
// resuming after the last applied sequence. Start it once; Stop tears
// it down and waits for the replay goroutine to exit.
type Follower struct {
	url    string
	target Target
	opts   FollowerOptions

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	ready     chan struct{} // closed once the target holds consistent state
	readyOnce sync.Once

	mu    sync.Mutex
	st    Status
	scope uint64 // replication scope of the held state, sent when resuming
}

// NewFollower prepares a follower for the stream endpoint at url
// (".../repl/stream"). Call Start to begin replication.
func NewFollower(url string, target Target, opts FollowerOptions) *Follower {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		url: url, target: target, opts: opts,
		ctx: ctx, cancel: cancel,
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
}

// URL returns the primary stream endpoint this follower replicates
// from.
func (f *Follower) URL() string { return f.url }

// Resume marks the target as already holding the state at seq of the
// given replication scope — a replica restarted on its own store — so
// the first stream request resumes at seq+1 instead of asking for an
// image. The publisher answers with an image all the same when the
// scope is not its own. Call before Start.
func (f *Follower) Resume(seq, scope uint64) {
	f.mu.Lock()
	f.st.AppliedSeq, f.st.PrimarySeq, f.st.Bootstrapped = seq, seq, true
	f.scope = scope
	f.mu.Unlock()
	f.signalReady()
}

// Start launches the replication loop.
func (f *Follower) Start() {
	go f.run()
}

// Stop cancels the stream and waits for the replay goroutine to exit.
// Idempotent.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Status returns the current replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// WaitReady blocks until the target holds a consistent replica state
// (the initial bootstrap has been applied) or ctx expires.
func (f *Follower) WaitReady(ctx context.Context) error {
	select {
	case <-f.ready:
		return nil
	case <-f.ctx.Done():
		return errors.New("replication: follower stopped")
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *Follower) signalReady() {
	f.readyOnce.Do(func() { close(f.ready) })
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.BackoffMin
	for f.ctx.Err() == nil {
		n, err := f.streamOnce()
		if f.ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		f.st.Connected = false
		if err != nil {
			f.st.LastError = err.Error()
		}
		f.mu.Unlock()
		if n > 0 {
			// The stream was healthy before it broke: forget the
			// accumulated backoff, or one early outage would ratchet
			// every future reconnect to BackoffMax forever.
			backoff = f.opts.BackoffMin
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.opts.BackoffMax {
			backoff = f.opts.BackoffMax
		}
	}
}

// streamOnce runs one connection: request the stream from the next
// needed sequence and replay records until the stream breaks. It
// returns how many records were processed (a healthy-stream signal for
// the backoff) alongside the terminal error. A record that fails its
// checksum or has an unknown kind ends the stream: nothing is skipped.
func (f *Follower) streamOnce() (n int, err error) {
	f.mu.Lock()
	url := f.url + "?from=0"
	if f.st.Bootstrapped {
		url = fmt.Sprintf("%s?from=%d&scope=%d", f.url, f.st.AppliedSeq+1, f.scope)
	}
	f.mu.Unlock()

	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("replication: primary returned %s", resp.Status)
	}

	f.mu.Lock()
	f.st.Connected = true
	f.st.LastError = ""
	f.mu.Unlock()

	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		rec, err := storage.ReadRecord(r)
		if err == io.EOF {
			return n, errors.New("replication: stream closed by primary")
		}
		if err != nil {
			return n, fmt.Errorf("replication: %w", err)
		}
		if err := f.handle(rec, r); err != nil {
			return n, err
		}
		n++
		// Quiesce only once a consistent state exists — the stream leads
		// with a heartbeat, which precedes the bootstrap image.
		f.mu.Lock()
		booted := f.st.Bootstrapped
		f.mu.Unlock()
		if booted && r.Buffered() == 0 {
			f.target.Quiesce()
		}
	}
}

// handle applies one record; an image's chunk records are read from r.
func (f *Follower) handle(rec []byte, r io.Reader) error {
	now := time.Now()
	switch rec[storage.RecordHeader] {
	case kindHeartbeat:
		seq, err := decodeHeartbeat(rec)
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.st.PrimarySeq = seq
		f.st.LastContact = now
		f.mu.Unlock()
		return nil
	case kindImage:
		img, err := readImage(rec, r)
		if err != nil {
			return err
		}
		if err := f.target.Bootstrap(img); err != nil {
			// the target may hold part of the image: only a new one
			// restores a consistent state
			f.mu.Lock()
			f.st.Bootstrapped = false
			f.mu.Unlock()
			return fmt.Errorf("replication: bootstrap at %d: %w", img.Seq, err)
		}
		f.mu.Lock()
		f.scope = img.Scope
		f.st.AppliedSeq = img.Seq
		if f.st.PrimarySeq < img.Seq {
			f.st.PrimarySeq = img.Seq
		}
		f.st.Bootstrapped = true
		f.st.LastContact = now
		f.mu.Unlock()
		f.signalReady()
		return nil
	case kindError:
		return fmt.Errorf("replication: primary error: %s", rec[storage.RecordHeader+1:])
	}
	// anything else must be a batch record: DecodeBatch rejects other kinds
	b, err := storage.DecodeBatch(rec)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	f.mu.Lock()
	applied, booted := f.st.AppliedSeq, f.st.Bootstrapped
	f.st.LastContact = now
	f.mu.Unlock()
	if !booted {
		return fmt.Errorf("replication: batch %d before bootstrap", b.Seq)
	}
	if b.Seq <= applied {
		return nil // duplicate after a reconnect race; already applied
	}
	if b.Seq != applied+1 {
		return fmt.Errorf("replication: sequence gap: got %d after %d", b.Seq, applied)
	}
	if err := f.target.ApplyBatch(b); err != nil {
		return fmt.Errorf("replication: apply batch %d: %w", b.Seq, err)
	}
	f.mu.Lock()
	f.st.AppliedSeq = b.Seq
	if f.st.PrimarySeq < b.Seq {
		f.st.PrimarySeq = b.Seq
	}
	f.mu.Unlock()
	return nil
}
