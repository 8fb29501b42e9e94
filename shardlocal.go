package hopi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hopi/internal/shardrouter"
)

// retainSnapshots is how many recent snapshots a shard keeps around
// for mid-flight queries (see StepRequest.Retain). Snapshots are
// immutable views sharing structure, so the ring costs little; it
// bounds how long a burst of writes can outrun an in-flight query
// before the query must re-pin.
const retainSnapshots = 32

// localShard adapts an in-process Index to the router's Conn
// interface. It is how the tests and benchmark/ run a whole shard tier
// in one process, what hopiserve's shard handlers delegate to, and the
// reference implementation the HTTP transport mirrors.
type localShard struct {
	name string
	ix   *Index

	mu       sync.Mutex
	retained []*Snapshot // most recent first, distinct epochs
}

// NewLocalShard wraps an in-process index as a router shard
// connection.
func NewLocalShard(name string, ix *Index) shardrouter.Conn {
	return &localShard{name: name, ix: ix}
}

func (l *localShard) Name() string { return l.name }

// remember adds s to the retention ring (it is a no-op when s's epoch
// is already the newest entry, the common case between writes).
func (l *localShard) remember(s *Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.retained) > 0 && l.retained[0].epoch == s.epoch {
		return
	}
	for i, r := range l.retained {
		if r.epoch == s.epoch {
			copy(l.retained[1:i+1], l.retained[:i])
			l.retained[0] = s
			return
		}
	}
	l.retained = append(l.retained, nil)
	copy(l.retained[1:], l.retained)
	l.retained[0] = s
	if len(l.retained) > retainSnapshots {
		l.retained = l.retained[:retainSnapshots]
	}
}

func (l *localShard) lookup(epoch uint64) *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.retained {
		if r.epoch == epoch {
			return r
		}
	}
	return nil
}

// pin returns the snapshot a request runs against, verifying the
// pinned epoch: the router's multi-RPC evaluation must never mix two
// shard states. When the shard has moved on, a retain-flagged request
// (a fresh query mid-evaluation) may still be served from the
// retention ring; anything else is answered with the shard's actual
// position and the router re-pins or fails the resume.
func (l *localShard) pin(epoch uint64, pinned, retain bool) (*Snapshot, error) {
	s := l.ix.Snapshot()
	l.remember(s)
	if !pinned || s.epoch == epoch {
		return s, nil
	}
	if retain {
		if old := l.lookup(epoch); old != nil {
			return old, nil
		}
	}
	return nil, &shardrouter.EpochMismatchError{
		Shard: l.name, Want: epoch, Current: s.epoch,
		Scope: s.scope, SeqEpoch: s.seqEpoch,
	}
}

func (l *localShard) Step(ctx context.Context, req *shardrouter.StepRequest) (*shardrouter.StepResponse, error) {
	s, err := l.pin(req.Epoch, req.Pin, req.Retain)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.ShardStep(ctx, req)
	if err == nil && req.Trace != "" {
		// In-process shards have no queue or encode legs — only eval.
		resp.Span = &shardrouter.Span{Trace: req.Trace, EvalUs: time.Since(t0).Microseconds()}
	}
	return resp, err
}

func (l *localShard) Deliver(ctx context.Context, req *shardrouter.DeliverRequest) (*shardrouter.DeliverResponse, error) {
	s, err := l.pin(req.Epoch, true, req.Retain)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.ShardDeliver(ctx, req)
	if err == nil && req.Trace != "" {
		resp.Span = &shardrouter.Span{Trace: req.Trace, EvalUs: time.Since(t0).Microseconds()}
	}
	return resp, err
}

func (l *localShard) Closure(ctx context.Context, req *shardrouter.ClosureRequest) (*shardrouter.ClosureResponse, error) {
	s, err := l.pin(req.Epoch, true, req.Retain)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.ShardClosure(ctx, req)
	if err == nil && req.Trace != "" {
		resp.Span = &shardrouter.Span{Trace: req.Trace, EvalUs: time.Since(t0).Microseconds()}
	}
	return resp, err
}

func (l *localShard) Resolve(ctx context.Context, specs []string) ([]shardrouter.ResolveResult, error) {
	return l.ix.Snapshot().ShardResolve(specs), nil
}

// Ready applies ReplicaStatus.Ready at DefaultReadyMaxLag: the rule a
// hopiserve shard's /readyz applies at its -ready-max-lag.
func (l *localShard) Ready(ctx context.Context) error {
	if ok, why := l.ix.ReplicaStatus().Ready(DefaultReadyMaxLag); !ok {
		return errors.New(why)
	}
	return nil
}

func (l *localShard) Write(ctx context.Context, req *shardrouter.WriteRequest) (*shardrouter.WriteResult, error) {
	b := NewBatch()
	switch req.Op {
	case shardrouter.OpInsertDoc:
		if err := b.InsertXML(req.Name, []byte(req.XML)); err != nil {
			return nil, err
		}
	case shardrouter.OpDeleteDoc:
		b.DeleteDocumentByName(req.Name)
	case shardrouter.OpInsertLink, shardrouter.OpDeleteLink:
		fromDoc, fromLocal, fromAnchor, err := ParseElementSpec(req.From)
		if err != nil {
			return nil, err
		}
		if fromAnchor != "" {
			return nil, errors.New("hopi: link source must be doc or doc:idx, not an anchor")
		}
		toDoc, toLocal, toAnchor, err := ParseElementSpec(req.To)
		if err != nil {
			return nil, err
		}
		switch {
		case req.Op == shardrouter.OpInsertLink && toAnchor != "":
			b.InsertLinkByAnchor(fromDoc, fromLocal, toDoc, toAnchor)
		case req.Op == shardrouter.OpInsertLink:
			b.InsertLink(fromDoc, fromLocal, toDoc, toLocal)
		default:
			if toAnchor != "" {
				// DeleteLink is local-index addressed; resolve the anchor
				// against the current state first.
				id, err := l.ix.Snapshot().coll.ResolveElement(req.To)
				if err != nil {
					return nil, translateShardErr(err)
				}
				_, toLocal = l.ix.Snapshot().coll.c.LocalID(id)
			}
			b.DeleteLink(fromDoc, fromLocal, toDoc, toLocal)
		}
	default:
		return nil, fmt.Errorf("hopi: unknown shard write op %q", req.Op)
	}
	res, err := l.ix.Apply(ctx, b)
	if err != nil {
		return nil, translateShardErr(err)
	}
	out := &shardrouter.WriteResult{Epoch: l.ix.epoch.Load()}
	if len(res.Results) > 0 {
		out.Doc = int(res.Results[0].Doc)
		out.Unresolved = res.Results[0].Unresolved
	}
	return out, nil
}

// translateShardErr maps the index's maintenance sentinels onto the
// router tier's, so HTTP and in-process shards classify identically.
func translateShardErr(err error) error {
	switch {
	case errors.Is(err, ErrNotFound):
		return fmt.Errorf("%w: %w", shardrouter.ErrNotFound, err)
	case errors.Is(err, ErrExists):
		return fmt.Errorf("%w: %w", shardrouter.ErrExists, err)
	}
	return err
}
