package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hopi"
	"hopi/internal/shardrouter"
)

// This file is the shard side of the distributed query tier: a
// hopiserve primary exposes the router's Conn RPCs (step, deliver,
// closure, resolve) over HTTP, so a hopirouter can own it as one
// shard of a sharded deployment. The handlers delegate to the same
// in-process shard adapter the tests and benchmark/ use — the HTTP
// layer is only a codec. The hot RPCs (step, deliver, closure) speak
// only the binary frames of shardrouter's codec; any other
// Content-Type is refused with 415. Errors travel as JSON, and so does
// the cold resolve RPC.

// shardErr writes a shard-RPC failure. Epoch mismatches travel as 412
// Precondition Failed with the structured mismatch attached, so the
// router can classify (retry fresh queries, fail resumes as stale).
func shardErr(w http.ResponseWriter, err error) {
	var em *shardrouter.EpochMismatchError
	if errors.As(err, &em) {
		writeJSON(w, http.StatusPreconditionFailed, struct {
			Error    string                          `json:"error"`
			Mismatch *shardrouter.EpochMismatchError `json:"epochMismatch"`
		}{Error: err.Error(), Mismatch: em})
		return
	}
	writeErr(w, statusFor(err), err)
}

// serveShardRPC runs one hot shard RPC: decode the binary request
// frame (415 for any other Content-Type, 400 for a malformed frame),
// evaluate it, and answer with the encoded response frame. A traced
// request gets a span back: queue is the time spent reading and
// decoding the body, eval the time inside the shard engine, and the
// encode time is stamped into the span's trailing EncodeUs field after
// serialization — the span is the frame's final four bytes exactly so
// the measurement can include the encoding it describes. Untraced
// responses stay byte-identical to the pre-tracing wire format.
func serveShardRPC[Req, Resp any](w http.ResponseWriter, r *http.Request,
	decode func([]byte) (*Req, error), trace func(*Req) string,
	eval func(context.Context, *Req) (*Resp, error), encode func(*Resp, *shardrouter.Span) []byte) {
	t0 := time.Now()
	if !strings.HasPrefix(r.Header.Get("Content-Type"), shardrouter.BinaryContentType) {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("shard RPCs take %s frames", shardrouter.BinaryContentType))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes))
	var req *Req
	if err == nil {
		req, err = decode(body)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
		return
	}
	t1 := time.Now()
	resp, err := eval(r.Context(), req)
	if err != nil {
		shardErr(w, err)
		return
	}
	var sp *shardrouter.Span
	if id := trace(req); id != "" {
		sp = &shardrouter.Span{Trace: id, QueueUs: t1.Sub(t0).Microseconds(), EvalUs: time.Since(t1).Microseconds()}
	}
	t2 := time.Now()
	frame := encode(resp, sp)
	if sp != nil {
		shardrouter.StampEncodeUs(frame, time.Since(t2))
	}
	w.Header().Set("Content-Type", shardrouter.BinaryContentType)
	w.Write(frame)
}

func (s *server) handleShardStep(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("step").Inc()
	serveShardRPC(w, r, shardrouter.DecodeStepRequest, func(q *shardrouter.StepRequest) string { return q.Trace },
		s.shard.Step, func(p *shardrouter.StepResponse, sp *shardrouter.Span) []byte {
			p.Span = sp
			return shardrouter.EncodeStepResponse(p)
		})
}

func (s *server) handleShardDeliver(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("deliver").Inc()
	serveShardRPC(w, r, shardrouter.DecodeDeliverRequest, func(q *shardrouter.DeliverRequest) string { return q.Trace },
		s.shard.Deliver, func(p *shardrouter.DeliverResponse, sp *shardrouter.Span) []byte {
			p.Span = sp
			return shardrouter.EncodeDeliverResponse(p)
		})
}

func (s *server) handleShardClosure(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("closure").Inc()
	serveShardRPC(w, r, shardrouter.DecodeClosureRequest, func(q *shardrouter.ClosureRequest) string { return q.Trace },
		s.shard.Closure, func(p *shardrouter.ClosureResponse, sp *shardrouter.Span) []byte {
			p.Span = sp
			return shardrouter.EncodeClosureResponse(p)
		})
}

func (s *server) handleShardResolve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs []string `json:"specs"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxDocBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
		return
	}
	res, err := s.shard.Resolve(r.Context(), req.Specs)
	if err != nil {
		shardErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Results []shardrouter.ResolveResult `json:"results"`
	}{Results: res})
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

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rs := s.ix.ReplicaStatus()
	out := readyzResponse{Role: rs.Role, Lag: rs.Lag}
	out.Ready, out.Why = rs.Ready(s.readyMaxLag)
	code := http.StatusOK
	if !out.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

type deleteLinkRequest struct {
	From string `json:"from"` // "doc.xml", "doc.xml:3"
	To   string `json:"to"`   // "doc.xml", "doc.xml:3", "doc.xml#anchor"
}

func (s *server) handleDeleteLink(w http.ResponseWriter, r *http.Request) {
	var req deleteLinkRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fromDoc, fromLocal, fromAnchor, err := hopi.ParseElementSpec(req.From)
	if err == nil && fromAnchor != "" {
		err = fmt.Errorf("anchor addressing is only supported for link targets")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	toDoc, toLocal, toAnchor, err := hopi.ParseElementSpec(req.To)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if toAnchor != "" {
		// DeleteLink addresses targets by local index; resolve the
		// anchor against the current snapshot first.
		coll := s.ix.Snapshot().Collection()
		id, rerr := coll.ResolveElement(req.To)
		if rerr != nil {
			writeErr(w, statusFor(rerr), rerr)
			return
		}
		toLocal = localOf(coll, id)
	}
	b := hopi.NewBatch()
	b.DeleteLink(fromDoc, fromLocal, toDoc, toLocal)
	if _, err := s.ix.Apply(r.Context(), b); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from": req.From, "to": req.To, "epoch": s.ix.Snapshot().Epoch(),
	})
}

func localOf(coll *hopi.Collection, id hopi.ElemID) int32 {
	doc := coll.DocOf(id)
	return int32(id) - int32(coll.ElemID(doc, 0))
}
