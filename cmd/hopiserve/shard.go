package main

import (
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
// layer is only a codec. The hot RPCs speak both codecs: JSON (the
// debug format and cross-version bridge) and the binary frames of
// shardrouter's codec, chosen per request by Content-Type and Accept.
// Errors always travel as JSON, whatever codec the payloads used.

// defaultReadyMaxLag is how many batches a replica may trail its
// primary and still report ready (flag-configurable via -ready-max-lag).
const defaultReadyMaxLag = 64

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

func decodeShardReq(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxDocBytes)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
		return false
	}
	return true
}

// isBinaryReq reports whether the request's payload is a binary shard
// frame; wantBinaryResp whether the client can consume one in return.
func isBinaryReq(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), shardrouter.BinaryContentType)
}

func wantBinaryResp(r *http.Request) bool {
	return isBinaryReq(r) || strings.Contains(r.Header.Get("Accept"), shardrouter.BinaryContentType)
}

// readShardBody reads one shard-RPC payload (bounded like document
// ingest).
func readShardBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
		return nil, false
	}
	return body, true
}

// spanFor builds the per-RPC span a traced shard request gets back:
// queue is the time spent reading and decoding the request body, eval
// the time inside the shard engine. The trace ID prefers the in-band
// request field and falls back to the X-Hopi-Trace header, so JSON
// clients that only set the header still get timed. Untraced requests
// get nil — the response stays byte-identical to the pre-tracing wire
// format.
func spanFor(r *http.Request, trace string, t0, t1, t2 time.Time) *shardrouter.Span {
	if trace == "" {
		trace = r.Header.Get(shardrouter.TraceHeader)
	}
	if trace == "" {
		return nil
	}
	return &shardrouter.Span{
		Trace:   trace,
		QueueUs: t1.Sub(t0).Microseconds(),
		EvalUs:  t2.Sub(t1).Microseconds(),
	}
}

// writeShardResp answers in the binary codec when the client asked for
// it, JSON otherwise. A traced binary response gets its encode time
// stamped into the span's trailing EncodeUs field after serialization —
// the span is the frame's final four bytes exactly so the measurement
// can include the encoding it describes. JSON spans report EncodeUs=0:
// there the span travels inside the body being encoded.
func writeShardResp(w http.ResponseWriter, r *http.Request, frame func() []byte, v any, sp *shardrouter.Span) {
	if wantBinaryResp(r) {
		w.Header().Set("Content-Type", shardrouter.BinaryContentType)
		t0 := time.Now()
		b := frame()
		if sp != nil {
			shardrouter.StampEncodeUs(b, time.Since(t0))
		}
		w.WriteHeader(http.StatusOK)
		w.Write(b)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *server) handleShardStep(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("step").Inc()
	t0 := time.Now()
	var req shardrouter.StepRequest
	if isBinaryReq(r) {
		body, ok := readShardBody(w, r)
		if !ok {
			return
		}
		p, err := shardrouter.DecodeStepRequest(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
			return
		}
		req = *p
	} else if !decodeShardReq(w, r, &req) {
		return
	}
	t1 := time.Now()
	resp, err := s.shard.Step(r.Context(), &req)
	if err != nil {
		shardErr(w, err)
		return
	}
	if sp := spanFor(r, req.Trace, t0, t1, time.Now()); sp != nil {
		resp.Span = sp
	}
	writeShardResp(w, r, func() []byte { return shardrouter.EncodeStepResponse(resp) }, resp, resp.Span)
}

func (s *server) handleShardDeliver(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("deliver").Inc()
	t0 := time.Now()
	var req shardrouter.DeliverRequest
	if isBinaryReq(r) {
		body, ok := readShardBody(w, r)
		if !ok {
			return
		}
		p, err := shardrouter.DecodeDeliverRequest(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
			return
		}
		req = *p
	} else if !decodeShardReq(w, r, &req) {
		return
	}
	t1 := time.Now()
	resp, err := s.shard.Deliver(r.Context(), &req)
	if err != nil {
		shardErr(w, err)
		return
	}
	if sp := spanFor(r, req.Trace, t0, t1, time.Now()); sp != nil {
		resp.Span = sp
	}
	writeShardResp(w, r, func() []byte { return shardrouter.EncodeDeliverResponse(resp) }, resp, resp.Span)
}

func (s *server) handleShardClosure(w http.ResponseWriter, r *http.Request) {
	s.shardRPCs.With("closure").Inc()
	t0 := time.Now()
	var req shardrouter.ClosureRequest
	if isBinaryReq(r) {
		body, ok := readShardBody(w, r)
		if !ok {
			return
		}
		p, err := shardrouter.DecodeClosureRequest(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shard request: %w", err))
			return
		}
		req = *p
	} else if !decodeShardReq(w, r, &req) {
		return
	}
	t1 := time.Now()
	resp, err := s.shard.Closure(r.Context(), &req)
	if err != nil {
		shardErr(w, err)
		return
	}
	if sp := spanFor(r, req.Trace, t0, t1, time.Now()); sp != nil {
		resp.Span = sp
	}
	writeShardResp(w, r, func() []byte { return shardrouter.EncodeClosureResponse(resp) }, resp, resp.Span)
}

func (s *server) handleShardResolve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs []string `json:"specs"`
	}
	if !decodeShardReq(w, r, &req) {
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
// answers: primaries and standalone indexes always can; a replica only
// once it is connected to its primary and within -ready-max-lag
// batches of it. The router excludes unready shards from fan-out.
type readyzResponse struct {
	Ready bool   `json:"ready"`
	Role  string `json:"role"`
	Lag   uint64 `json:"lag,omitempty"`
	Why   string `json:"why,omitempty"`
}

func (s *server) readiness() readyzResponse {
	rs := s.ix.ReplicaStatus()
	out := readyzResponse{Ready: true, Role: rs.Role, Lag: rs.Lag}
	if rs.Role == "replica" {
		switch {
		case !rs.Connected:
			out.Ready = false
			out.Why = "replication stream disconnected"
		case rs.Lag > uint64(s.readyMaxLag):
			out.Ready = false
			out.Why = fmt.Sprintf("replica %d batches behind primary (max %d)", rs.Lag, s.readyMaxLag)
		}
	}
	return out
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := s.readiness()
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
