package main

import (
	"context"
	"fmt"

	"hopi"
	"hopi/internal/obs"
)

// backend is what the shared routes serve: an index (indexBackend) or
// a router over shard primaries (routerBackend). Each keeps its own
// write response bodies, /readyz body and metric registry.
type backend interface {
	// query runs p, handing its rows to emit in batches of at most
	// p.page, and returns the token that continues after the last row
	// emitted ("" once the result set is exhausted) and the snapshot
	// epoch the rows came from (nil from a router). An error from emit
	// stops the run and comes back with that token.
	query(ctx context.Context, p *queryParams, emit func([]queryResult) error) (next string, epoch *uint64, err error)
	insertDoc(ctx context.Context, name string, data []byte) (any, error)
	deleteDoc(ctx context.Context, name string) (any, error)
	// link inserts (or, insert false, deletes) a link between element
	// specs: "doc.xml", "doc.xml:3", and "doc.xml#anchor" for the target.
	link(ctx context.Context, insert bool, from, to string) (any, error)
	// ready reports whether complete, fresh answers can be served, and
	// the /readyz body that says why.
	ready(ctx context.Context) (bool, any)
	metrics() *obs.Registry
}

// indexBackend serves one index. A query compiles through the
// prepared-statement cache and runs as one cursor, whose limit stops
// evaluation once the page is full.
type indexBackend struct {
	ix          *hopi.Index
	cache       *stmtCache
	readyMaxLag uint64 // the replica lag ceiling for /readyz
	reg         *obs.Registry
}

func (b *indexBackend) query(ctx context.Context, p *queryParams, emit func([]queryResult) error) (string, *uint64, error) {
	pq, err := b.cache.get(p.expr)
	if err != nil {
		return "", nil, err
	}
	opts := []hopi.QueryOption{hopi.QueryLimit(p.limit)}
	if p.ranked {
		opts = append(opts, hopi.QueryRanked())
	}
	if p.resume != "" {
		opts = append(opts, hopi.QueryResume(p.resume))
	}
	snap := b.ix.Snapshot()
	// Malformed, stale and retryable stale tokens fail here, before any
	// row: statusFor tells them apart.
	cur, err := snap.Run(ctx, pq, opts...)
	if err != nil {
		return "", nil, err
	}
	defer cur.Close()
	epoch, coll := snap.Epoch(), snap.Collection()
	rows := make([]queryResult, 0, min(p.page, p.limit))
	for cur.Next() {
		m := cur.Result()
		rows = append(rows, queryResult{Doc: m.Doc, Local: localOf(coll, m.Element), Tag: m.Tag, Score: m.Score})
		if len(rows) == cap(rows) {
			if err := emit(rows); err != nil {
				return cur.Token(), &epoch, err
			}
			rows = rows[:0]
		}
	}
	if err = emit(rows); err == nil {
		err = cur.Err()
	}
	if err != nil || cur.HasMore() {
		return cur.Token(), &epoch, err
	}
	return "", &epoch, nil
}

// apply runs a one-operation batch and returns its result and the
// epoch the write produced: clients routing resume tokens across
// replicas use it to find a caught-up node.
func (b *indexBackend) apply(ctx context.Context, batch *hopi.Batch) (hopi.OpResult, uint64, error) {
	res, err := b.ix.Apply(ctx, batch)
	if err != nil {
		return hopi.OpResult{}, 0, err
	}
	return res.Results[0], b.ix.Snapshot().Epoch(), nil
}

type insertDocResponse struct {
	Doc        hopi.DocID `json:"doc"`
	Name       string     `json:"name"`
	Unresolved []string   `json:"unresolved,omitempty"`
	Epoch      uint64     `json:"epoch"`
}

func (b *indexBackend) insertDoc(ctx context.Context, name string, data []byte) (any, error) {
	batch := hopi.NewBatch()
	if err := batch.InsertXML(name, data); err != nil {
		return nil, err
	}
	op, epoch, err := b.apply(ctx, batch)
	if err != nil {
		return nil, err
	}
	return insertDocResponse{Doc: op.Doc, Name: name, Unresolved: op.Unresolved, Epoch: epoch}, nil
}

type deleteDocResponse struct {
	Doc      hopi.DocID `json:"doc"`
	Name     string     `json:"name"`
	FastPath bool       `json:"fastPath"`
	Epoch    uint64     `json:"epoch"`
}

func (b *indexBackend) deleteDoc(ctx context.Context, name string) (any, error) {
	batch := hopi.NewBatch()
	batch.DeleteDocumentByName(name)
	op, epoch, err := b.apply(ctx, batch)
	if err != nil {
		return nil, err
	}
	return deleteDocResponse{Doc: op.Doc, Name: name, FastPath: op.FastPath, Epoch: epoch}, nil
}

func (b *indexBackend) link(ctx context.Context, insert bool, from, to string) (any, error) {
	fromDoc, fromLocal, fromAnchor, err := hopi.ParseElementSpec(from)
	if err == nil && fromAnchor != "" {
		err = fmt.Errorf("anchor addressing is only supported for link targets")
	}
	if err != nil {
		return nil, err
	}
	toDoc, toLocal, toAnchor, err := hopi.ParseElementSpec(to)
	if err != nil {
		return nil, err
	}
	batch := hopi.NewBatch()
	switch {
	case insert && toAnchor != "":
		batch.InsertLinkByAnchor(fromDoc, fromLocal, toDoc, toAnchor)
	case insert:
		batch.InsertLink(fromDoc, fromLocal, toDoc, toLocal)
	default:
		if toAnchor != "" {
			// DeleteLink addresses targets by local index; resolve the
			// anchor against the current snapshot first.
			coll := b.ix.Snapshot().Collection()
			id, err := coll.ResolveElement(to)
			if err != nil {
				return nil, err
			}
			toLocal = localOf(coll, id)
		}
		batch.DeleteLink(fromDoc, fromLocal, toDoc, toLocal)
	}
	_, epoch, err := b.apply(ctx, batch)
	if err != nil {
		return nil, err
	}
	return map[string]any{"from": from, "to": to, "epoch": epoch}, nil
}

// readyzResponse reports whether this node can serve complete, fresh
// answers, by ReplicaStatus.Ready at -ready-max-lag. The router
// excludes unready shards from fan-out.
type readyzResponse struct {
	Ready bool   `json:"ready"`
	Role  string `json:"role"`
	Lag   uint64 `json:"lag,omitempty"`
	Why   string `json:"why,omitempty"`
}

func (b *indexBackend) ready(context.Context) (bool, any) {
	rs := b.ix.ReplicaStatus()
	out := readyzResponse{Role: rs.Role, Lag: rs.Lag}
	out.Ready, out.Why = rs.Ready(b.readyMaxLag)
	return out.Ready, out
}

func (b *indexBackend) metrics() *obs.Registry { return b.reg }

// localOf is id's index within its document.
func localOf(coll *hopi.Collection, id hopi.ElemID) int32 {
	return int32(id - coll.ElemID(coll.DocOf(id), 0))
}

// routerBackend serves a router over shard primaries: a query request
// is Router.Query's page loop, one cross-shard round per p.page rows.
type routerBackend struct{ r *hopi.Router }

func (b routerBackend) query(ctx context.Context, p *queryParams, emit func([]queryResult) error) (string, *uint64, error) {
	opt := hopi.RouterQueryOptions{Ranked: p.ranked, Resume: p.resume, Trace: p.trace}
	rows := make([]queryResult, 0, min(p.page, p.limit))
	for n := 0; n < p.limit; {
		opt.Limit = min(p.page, p.limit-n)
		page, err := b.r.Query(ctx, p.expr, opt)
		if err != nil {
			// the token that produced the error is the one to retry
			return opt.Resume, nil, err
		}
		rows = rows[:0]
		for _, m := range page.Results {
			rows = append(rows, queryResult{Doc: m.Doc, Local: m.Local, Tag: m.Tag, Score: m.Score})
		}
		n += len(rows)
		if err := emit(rows); err != nil || page.NextToken == "" {
			return page.NextToken, nil, err
		}
		opt.Resume = page.NextToken
	}
	return opt.Resume, nil, nil
}

// insertDoc routes the document to the least-loaded shard.
func (b routerBackend) insertDoc(ctx context.Context, name string, data []byte) (any, error) {
	return b.r.InsertXML(ctx, name, data)
}

func (b routerBackend) deleteDoc(ctx context.Context, name string) (any, error) {
	return map[string]string{"name": name}, b.r.DeleteDocument(ctx, name)
}

func (b routerBackend) link(ctx context.Context, insert bool, from, to string) (any, error) {
	op := b.r.DeleteLink
	if insert {
		op = b.r.InsertLink
	}
	return map[string]string{"from": from, "to": to}, op(ctx, from, to)
}

// ready lists every shard's own answer; the router is ready when all are.
func (b routerBackend) ready(ctx context.Context) (bool, any) {
	st := b.r.Unwrap().Ready(ctx)
	return st.Ready, st
}

// metrics is the router's own hopi_router_* registry.
func (b routerBackend) metrics() *obs.Registry { return b.r.Unwrap().Metrics() }
