package shardrouter

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTraceWireCompat pins the negotiation contract of the optional
// trailing trace section: an untraced frame is byte-identical to one
// encoded before tracing existed (so every old↔new pairing keeps
// speaking binary), and the traced extension is purely additive — the
// base frame plus the trailing field.
func TestTraceWireCompat(t *testing.T) {
	base := &StepRequest{Epoch: 9, Pin: true, Axis: "//", Tag: "a", Seed: true}
	plain := EncodeStepRequest(base)

	traced := *base
	traced.Trace = "deadbeefcafef00d"
	ext := EncodeStepRequest(&traced)

	if !bytes.Equal(ext[:len(plain)], plain) {
		t.Fatalf("traced frame does not extend the untraced frame:\nplain %x\n  ext %x", plain, ext)
	}
	if len(ext) <= len(plain) {
		t.Fatalf("traced frame (%d bytes) not longer than untraced (%d)", len(ext), len(plain))
	}

	// A decoder must see the trace exactly when the trailing bytes are
	// present, and "" otherwise.
	got, err := DecodeStepRequest(ext)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != traced.Trace {
		t.Fatalf("Trace = %q, want %q", got.Trace, traced.Trace)
	}
	got, err = DecodeStepRequest(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != "" {
		t.Fatalf("untraced frame decoded Trace = %q, want empty", got.Trace)
	}

	// Responses: a span-less frame stays minimal, a span extends it.
	resp := &StepResponse{Epoch: 2, Scope: 3}
	plainR := EncodeStepResponse(resp)
	withSpan := *resp
	withSpan.Span = &Span{Trace: traced.Trace, QueueUs: 5, EvalUs: 6, EncodeUs: 7}
	extR := EncodeStepResponse(&withSpan)
	if !bytes.Equal(extR[:len(plainR)], plainR) {
		t.Fatal("span-carrying response does not extend the span-less frame")
	}
	gotR, err := DecodeStepResponse(plainR)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Span != nil {
		t.Fatalf("span-less frame decoded Span = %+v, want nil", gotR.Span)
	}
}

// TestStampEncodeUs: the span's EncodeUs is the frame's final four
// bytes, so stamping after serialization records the encode it just
// timed without re-encoding.
func TestStampEncodeUs(t *testing.T) {
	resp := &DeliverResponse{
		Matches: []FrontierElem{{ID: 1, Doc: "a.xml", Tag: "t"}},
		Span:    &Span{Trace: "0123456789abcdef", QueueUs: 10, EvalUs: 20},
	}
	frame := EncodeDeliverResponse(resp)
	StampEncodeUs(frame, 123*time.Microsecond)
	got, err := DecodeDeliverResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span == nil || got.Span.EncodeUs != 123 {
		t.Fatalf("Span = %+v, want EncodeUs=123", got.Span)
	}
	if got.Span.QueueUs != 10 || got.Span.EvalUs != 20 || got.Span.Trace != resp.Span.Trace {
		t.Fatalf("stamp clobbered other span fields: %+v", got.Span)
	}

	// Saturating: a pathological duration clamps instead of wrapping.
	StampEncodeUs(frame, 2<<40*time.Microsecond)
	got, err = DecodeDeliverResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span.EncodeUs != int64(^uint32(0)) {
		t.Fatalf("EncodeUs = %d, want u32 max", got.Span.EncodeUs)
	}
}

// TestQueryTraceNilSafe: every method is a no-op on a nil trace, so
// untraced queries pay nothing and guard no call sites.
func TestQueryTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	if tr.ID() != "" {
		t.Fatal("nil ID not empty")
	}
	tr.attempt()
	tr.add("seed", "step", "s0", time.Now(), nil, nil)
	tr.finish(time.Now(), 3)
	if tr.Format() != "" {
		t.Fatal("nil Format not empty")
	}
}

// TestQueryTraceFormat: the log line carries the header fields and the
// spans grouped by phase in first-seen order.
func TestQueryTraceFormat(t *testing.T) {
	tr := &QueryTrace{TraceID: "deadbeefcafef00d", Expr: "//a//b", Ranked: true, Plan: "//a → //b"}
	tr.attempt()
	start := time.Now().Add(-2 * time.Millisecond)
	tr.add("seed", "step", "shard0", start, &Span{Trace: tr.TraceID, QueueUs: 3, EvalUs: 40, EncodeUs: 1}, nil)
	tr.add("seed", "step", "shard1", start, nil, nil)
	tr.add("closure", "assemble", RouterSpanShard, start, nil, nil)
	tr.add("step1://b", "step", "shard0", start, nil, nil)
	tr.add("step1://b", "route", RouterSpanShard, start, nil, nil)
	tr.finish(start, 7)

	line := tr.Format()
	for _, want := range []string{
		"trace=deadbeefcafef00d", "results=7", "attempts=1", "ranked=true",
		`expr="//a//b"`, "plan=[//a → //b]",
		"seed[", "shard0/step", "(q=3µs e=40µs n=1µs)", "step1://b[",
		"closure[router/assemble", "router/route",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("Format() missing %q:\n%s", want, line)
		}
	}
	if seed, step1 := strings.Index(line, "seed["), strings.Index(line, "step1://b["); seed > step1 {
		t.Errorf("phases out of first-seen order:\n%s", line)
	}
}
