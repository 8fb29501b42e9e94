package replication

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hopi/internal/storage"
)

// Source is the primary-side state the Publisher draws on beyond its
// own in-memory tail. Both methods must return internally consistent
// views (hopi.Index serves them under its read lock).
type Source interface {
	// Image returns a full state snapshot for bootstrapping a follower.
	Image() (*Image, error)
	// WALTail returns the committed batch records with sequence >=
	// from, as the durable log framed them, when the log still covers
	// from contiguously; ok=false when a checkpoint has folded them away
	// (the publisher then falls back to Image).
	WALTail(from uint64) ([]storage.WALRecord, bool, error)
}

// PublisherOptions tunes a Publisher; the zero value picks defaults.
type PublisherOptions struct {
	// TailBatches bounds the in-memory batch tail (default 1024).
	// Followers lagging past it are served from the WAL, or
	// re-bootstrapped from a snapshot image.
	TailBatches int
	// Heartbeat is the idle-stream heartbeat interval (default 3s).
	// Heartbeats carry the primary's last committed sequence, which is
	// what followers report replication lag against.
	Heartbeat time.Duration
	// Scope is the primary's replication scope. A follower resuming
	// with another scope holds another store's state and is answered
	// with an image.
	Scope uint64
}

func (o *PublisherOptions) defaults() {
	if o.TailBatches <= 0 {
		o.TailBatches = 1024
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 3 * time.Second
	}
}

// Publisher is the primary side of WAL shipping: it is handed every
// committed batch (Publish, hooked into the index's durable commit
// path), retains a bounded tail, and serves any number of follower
// streams as an http.Handler. Safe for concurrent use.
type Publisher struct {
	src  Source
	opts PublisherOptions

	mu      sync.Mutex
	tail    []storage.WALRecord // contiguous run of the most recent batches
	lastSeq uint64              // highest committed sequence (0 = only the initial image exists)
	notify  chan struct{}
	closed  bool

	active  atomic.Int64  // currently connected follower streams
	shipped atomic.Uint64 // batch records written across all streams
}

// NewPublisher returns a publisher whose history starts after lastSeq
// (the primary's current committed sequence): earlier batches are
// served from the WAL or as a snapshot image.
func NewPublisher(src Source, lastSeq uint64, opts PublisherOptions) *Publisher {
	opts.defaults()
	return &Publisher{src: src, opts: opts, lastSeq: lastSeq, notify: make(chan struct{})}
}

// Publish hands the publisher one committed batch record; followers
// receive rec.Raw, the bytes the WAL fsynced, and only Seq and Raw need
// be set. Records must arrive in sequence order; the call never blocks
// on slow followers (they fall behind into the WAL/snapshot paths
// instead).
func (p *Publisher) Publish(rec storage.WALRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.tail = append(p.tail, rec)
	if len(p.tail) > p.opts.TailBatches {
		// copy instead of re-slicing so the evicted prefix can be freed
		keep := make([]storage.WALRecord, p.opts.TailBatches)
		copy(keep, p.tail[len(p.tail)-p.opts.TailBatches:])
		p.tail = keep
	}
	p.lastSeq = rec.Seq
	close(p.notify)
	p.notify = make(chan struct{})
}

// LastSeq returns the highest published (committed) sequence.
func (p *Publisher) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeq
}

// ActiveStreams returns the number of currently connected follower
// streams.
func (p *Publisher) ActiveStreams() int64 { return p.active.Load() }

// Shipped returns the total number of batch records written to
// followers.
func (p *Publisher) Shipped() uint64 { return p.shipped.Load() }

// Close wakes every idle stream so it can terminate; subsequent
// Publish calls are dropped. Streams already writing finish their
// current record and exit.
func (p *Publisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.notify)
	p.notify = make(chan struct{})
}

// take decides what to ship to a stream positioned at pos (the next
// sequence it needs): a run of batches, a snapshot image (snapshot
// true), or nothing yet (wait on notify). It never calls the Source
// while holding the publisher lock — the source takes the index's read
// lock, which a writer mid-Publish may hold exclusively.
func (p *Publisher) take(pos uint64) (batches []storage.WALRecord, notify chan struct{}, snapshot, closed bool) {
	p.mu.Lock()
	notify = p.notify
	closed = p.closed
	last := p.lastSeq
	if pos == 0 || pos > last+1 {
		// bootstrap request, or a follower ahead of this primary's
		// history (e.g. the primary was restored from an older state):
		// reset it with a full image
		p.mu.Unlock()
		return nil, notify, true, closed
	}
	if pos == last+1 {
		p.mu.Unlock()
		return nil, notify, false, closed
	}
	if n := len(p.tail); n > 0 && p.tail[0].Seq <= pos {
		i := int(pos - p.tail[0].Seq)
		batches = append([]storage.WALRecord(nil), p.tail[i:]...)
		p.mu.Unlock()
		return batches, notify, false, closed
	}
	p.mu.Unlock()
	// the tail no longer reaches back to pos: try the durable log
	wb, ok, err := p.src.WALTail(pos)
	if err == nil && ok {
		return wb, notify, false, closed
	}
	return nil, notify, true, closed
}

// ServeHTTP implements GET /repl/stream?from=<seq>[&scope=<scope>]: an
// unbounded response of image, batch and heartbeat records. from is the
// first sequence the follower needs (0 = bootstrap); scope, when given,
// is the replication scope of the state the follower holds. The stream
// runs until the client disconnects or the publisher closes.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from parameter", http.StatusBadRequest)
			return
		}
		from = n
	}
	if v := r.URL.Query().Get("scope"); v != "" && v != strconv.FormatUint(p.opts.Scope, 10) {
		from = 0 // a state of another replication group: reset it
	}
	w.Header().Set("Content-Type", streamContentType)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	write := func(rec []byte) bool {
		_, err := w.Write(rec)
		return err == nil
	}
	p.active.Add(1)
	defer p.active.Add(-1)
	ctx := r.Context()

	// Lead with a heartbeat so the follower learns the primary's
	// position (and its own lag) before the first batch arrives.
	if !write(heartbeat(p.LastSeq())) {
		return
	}
	flush()

	pos := from
	timer := time.NewTimer(p.opts.Heartbeat)
	defer timer.Stop()
	for {
		batches, notify, snapshot, closed := p.take(pos)
		switch {
		case snapshot:
			img, err := p.src.Image()
			if err != nil {
				write(record(kindError, []byte(err.Error())))
				return
			}
			if writeImage(w, img) != nil {
				return
			}
			flush()
			pos = img.Seq + 1
		case len(batches) > 0:
			for _, b := range batches {
				if !write(b.Raw) {
					return
				}
				p.shipped.Add(1)
				pos = b.Seq + 1
			}
			flush()
		default:
			// up to date: wait for the next publish, heartbeating while
			// idle so the follower can tell lag from disconnection
			if closed {
				return
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(p.opts.Heartbeat)
			select {
			case <-ctx.Done():
				return
			case <-notify:
			case <-timer.C:
				if !write(heartbeat(p.LastSeq())) {
					return
				}
				flush()
			}
		}
		if closed {
			return
		}
	}
}
