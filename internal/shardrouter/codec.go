package shardrouter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary wire codec for the hot shard RPCs (Step, Deliver, Closure),
// their only encoding in both directions (Content-Type
// BinaryContentType). Frontier, arrival, and closure payloads are
// arrays of small fixed records; length-prefixed little-endian frames
// carry them without number formatting, field names or escaping.
// Unknown or malformed frames are rejected, never guessed at.
//
// Frame layout: a 4-byte header "HB" + version + message kind, then
// the message fields in fixed order. Integers are little-endian
// fixed-width; strings are u32-length-prefixed UTF-8 bytes; slices
// and maps are u32-count-prefixed with ^u32(0) marking nil (so
// decode(encode(x)) == x exactly, nil-ness included).
//
// Tracing adds an OPTIONAL TRAILING SECTION to every message: a
// request's trace ID, a response's Span. The base fields are fully
// length-determined, so a decoder knows a frame carries the section
// exactly when bytes remain after them, and an untraced frame is
// byte-identical to the base format. A shard only appends a Span when
// the request carried a trace.

// BinaryContentType labels the binary shard-RPC codec in
// Content-Type/Accept headers.
const BinaryContentType = "application/x-hopi-bin"

// ErrBadFrame is wrapped by every binary-decode failure: truncated
// frames, bad magic/version, wrong message kind, or implausible
// length prefixes.
var ErrBadFrame = errors.New("shardrouter: malformed binary frame")

const (
	binMagic0  = 'H'
	binMagic1  = 'B'
	binVersion = 1
)

// Message kinds (the header's fourth byte).
const (
	kindStepRequest byte = iota + 1
	kindStepResponse
	kindDeliverRequest
	kindDeliverResponse
	kindClosureRequest
	kindClosureResponse
)

// nilLen marks a nil slice/map in a length prefix.
const nilLen = ^uint32(0)

// --- writer -----------------------------------------------------------

type binWriter struct{ b []byte }

func newBinWriter(kind byte) *binWriter {
	return &binWriter{b: []byte{binMagic0, binMagic1, binVersion, kind}}
}

func (w *binWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *binWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *binWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *binWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *binWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// slen writes a slice/map length prefix; isNil encodes a nil value.
func (w *binWriter) slen(n int, isNil bool) {
	if isNil {
		w.u32(nilLen)
		return
	}
	w.u32(uint32(n))
}

func (w *binWriter) strs(ss []string) {
	w.slen(len(ss), ss == nil)
	for _, s := range ss {
		w.str(s)
	}
}

func (w *binWriter) frontier(fes []FrontierElem) {
	w.slen(len(fes), fes == nil)
	for i := range fes {
		fe := &fes[i]
		w.i32(fe.ID)
		w.f64(fe.Score)
		w.str(fe.Doc)
		w.i32(fe.Local)
		w.str(fe.Tag)
	}
}

func (w *binWriter) arrivals(m map[string][]Arrival) {
	w.slen(len(m), m == nil)
	for spec, arr := range m {
		w.str(spec)
		w.slen(len(arr), arr == nil)
		for _, a := range arr {
			w.f64(a.Base)
			w.u32(a.Dist)
		}
	}
}

func (w *binWriter) deliveries(m map[string][]Delivery) {
	w.slen(len(m), m == nil)
	for spec, ds := range m {
		w.str(spec)
		w.slen(len(ds), ds == nil)
		for i := range ds {
			d := &ds[i]
			w.i32(d.ID)
			w.u32(d.Dist)
			w.str(d.Doc)
			w.i32(d.Local)
			w.str(d.Tag)
		}
	}
}

func (w *binWriter) dists(ds []uint32) {
	w.slen(len(ds), ds == nil)
	for _, d := range ds {
		w.u32(d)
	}
}

// clampUs clamps a microsecond count to u32 (over an hour; RPCs are
// timeout-bounded far below that).
func clampUs(us int64) uint32 {
	if us < 0 {
		return 0
	}
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}

// span writes a response's trailing Span section. EncodeUs is written
// last so StampEncodeUs can patch it after the frame is built.
func (w *binWriter) span(sp *Span) {
	w.str(sp.Trace)
	w.u32(clampUs(sp.QueueUs))
	w.u32(clampUs(sp.EvalUs))
	w.u32(clampUs(sp.EncodeUs))
}

// StampEncodeUs overwrites the EncodeUs field — the final 4 bytes — of
// a frame encoded with a non-nil Span, letting the server report the
// frame's own serialization time inside it.
func StampEncodeUs(frame []byte, d time.Duration) {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], clampUs(d.Microseconds()))
}

// --- reader -----------------------------------------------------------

type binReader struct {
	b   []byte
	off int
	err error
}

func newBinReader(b []byte, kind byte) *binReader {
	r := &binReader{b: b}
	if len(b) < 4 || b[0] != binMagic0 || b[1] != binMagic1 {
		r.err = fmt.Errorf("%w: bad magic", ErrBadFrame)
		return r
	}
	if b[2] != binVersion {
		r.err = fmt.Errorf("%w: unknown version %d", ErrBadFrame, b[2])
		return r
	}
	if b[3] != kind {
		r.err = fmt.Errorf("%w: message kind %d, want %d", ErrBadFrame, b[3], kind)
		return r
	}
	r.off = 4
	return r
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *binReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) i32() int32   { return int32(r.u32()) }
func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *binReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(r.b)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return ""
	}
	return string(r.take(int(n)))
}

// length reads a slice/map prefix: -1 for nil, else the count,
// validated against the remaining bytes at minElem bytes per element
// so a corrupt prefix cannot force a huge allocation.
func (r *binReader) length(minElem int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n == nilLen {
		return -1
	}
	if uint64(n)*uint64(minElem) > uint64(len(r.b)-r.off) {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *binReader) strs() []string {
	n := r.length(4)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// frontierElem is 4+8+4 fixed bytes plus two string prefixes.
const minFrontierElem = 4 + 8 + 4 + 4 + 4

func (r *binReader) frontier() []FrontierElem {
	n := r.length(minFrontierElem)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]FrontierElem, n)
	for i := range out {
		out[i].ID = r.i32()
		out[i].Score = r.f64()
		out[i].Doc = r.str()
		out[i].Local = r.i32()
		out[i].Tag = r.str()
	}
	return out
}

func (r *binReader) arrivals() map[string][]Arrival {
	n := r.length(8)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make(map[string][]Arrival, n)
	for i := 0; i < n; i++ {
		spec := r.str()
		cnt := r.length(12)
		if r.err != nil {
			return nil
		}
		if cnt < 0 {
			out[spec] = nil
			continue
		}
		arr := make([]Arrival, cnt)
		for j := range arr {
			arr[j].Base = r.f64()
			arr[j].Dist = r.u32()
		}
		out[spec] = arr
	}
	return out
}

const minDelivery = 4 + 4 + 4 + 4 + 4

func (r *binReader) deliveries() map[string][]Delivery {
	n := r.length(8)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make(map[string][]Delivery, n)
	for i := 0; i < n; i++ {
		spec := r.str()
		cnt := r.length(minDelivery)
		if r.err != nil {
			return nil
		}
		if cnt < 0 {
			out[spec] = nil
			continue
		}
		ds := make([]Delivery, cnt)
		for j := range ds {
			ds[j].ID = r.i32()
			ds[j].Dist = r.u32()
			ds[j].Doc = r.str()
			ds[j].Local = r.i32()
			ds[j].Tag = r.str()
		}
		out[spec] = ds
	}
	return out
}

func (r *binReader) dists() []uint32 {
	n := r.length(4)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

// trailingTrace reads the optional trailing trace ID of a request
// frame; "" when the frame ends at the base fields (untraced peer).
func (r *binReader) trailingTrace() string {
	if r.err != nil || r.off >= len(r.b) {
		return ""
	}
	return r.str()
}

// trailingSpan reads the optional trailing Span of a response frame;
// nil when the frame ends at the base fields (untraced request or a
// shard predating tracing).
func (r *binReader) trailingSpan() *Span {
	if r.err != nil || r.off >= len(r.b) {
		return nil
	}
	sp := &Span{}
	sp.Trace = r.str()
	sp.QueueUs = int64(r.u32())
	sp.EvalUs = int64(r.u32())
	sp.EncodeUs = int64(r.u32())
	return sp
}

// finish validates that the frame was consumed exactly.
func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b)-r.off)
	}
	return nil
}

// --- flag bits --------------------------------------------------------

func packFlags(bits ...bool) byte {
	var out byte
	for i, b := range bits {
		if b {
			out |= 1 << i
		}
	}
	return out
}

func bit(flags byte, i int) bool { return flags&(1<<i) != 0 }

// --- messages ---------------------------------------------------------

// EncodeStepRequest serializes a StepRequest as a binary frame.
func EncodeStepRequest(m *StepRequest) []byte {
	w := newBinWriter(kindStepRequest)
	w.u64(m.Epoch)
	w.u8(packFlags(m.Pin, m.Retain, m.Ranked, m.Seed, m.WantMeta, m.WantClosure, m.ClosureWithDist))
	w.str(m.Axis)
	w.str(m.Tag)
	w.frontier(m.Frontier)
	w.strs(m.ProbeOut)
	w.strs(m.ProbeIn)
	w.strs(m.ClosureFrom)
	w.strs(m.ClosureTo)
	if m.Trace != "" {
		w.str(m.Trace)
	}
	return w.b
}

// DecodeStepRequest parses a binary StepRequest frame; malformed
// frames wrap ErrBadFrame.
func DecodeStepRequest(b []byte) (*StepRequest, error) {
	r := newBinReader(b, kindStepRequest)
	m := &StepRequest{}
	m.Epoch = r.u64()
	flags := r.u8()
	m.Pin, m.Retain, m.Ranked, m.Seed = bit(flags, 0), bit(flags, 1), bit(flags, 2), bit(flags, 3)
	m.WantMeta, m.WantClosure, m.ClosureWithDist = bit(flags, 4), bit(flags, 5), bit(flags, 6)
	m.Axis = r.str()
	m.Tag = r.str()
	m.Frontier = r.frontier()
	m.ProbeOut = r.strs()
	m.ProbeIn = r.strs()
	m.ClosureFrom = r.strs()
	m.ClosureTo = r.strs()
	m.Trace = r.trailingTrace()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeStepResponse serializes a StepResponse as a binary frame.
func EncodeStepResponse(m *StepResponse) []byte {
	w := newBinWriter(kindStepResponse)
	w.u64(m.Epoch)
	w.u64(m.Scope)
	w.u8(packFlags(m.SeqEpoch, m.Closure != nil))
	w.frontier(m.Frontier)
	w.arrivals(m.Out)
	if m.Closure != nil {
		w.dists(m.Closure.Dist)
	}
	w.deliveries(m.Deliveries)
	if m.Span != nil {
		w.span(m.Span)
	}
	return w.b
}

// DecodeStepResponse parses a binary StepResponse frame.
func DecodeStepResponse(b []byte) (*StepResponse, error) {
	r := newBinReader(b, kindStepResponse)
	m := &StepResponse{}
	m.Epoch = r.u64()
	m.Scope = r.u64()
	flags := r.u8()
	m.SeqEpoch = bit(flags, 0)
	m.Frontier = r.frontier()
	m.Out = r.arrivals()
	if bit(flags, 1) {
		m.Closure = &ClosureResponse{Dist: r.dists()}
	}
	m.Deliveries = r.deliveries()
	m.Span = r.trailingSpan()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeDeliverRequest serializes a DeliverRequest as a binary frame.
func EncodeDeliverRequest(m *DeliverRequest) []byte {
	w := newBinWriter(kindDeliverRequest)
	w.u64(m.Epoch)
	w.u8(packFlags(m.Retain, m.Ranked, m.WantMeta))
	w.str(m.Tag)
	w.arrivals(m.In)
	if m.Trace != "" {
		w.str(m.Trace)
	}
	return w.b
}

// DecodeDeliverRequest parses a binary DeliverRequest frame.
func DecodeDeliverRequest(b []byte) (*DeliverRequest, error) {
	r := newBinReader(b, kindDeliverRequest)
	m := &DeliverRequest{}
	m.Epoch = r.u64()
	flags := r.u8()
	m.Retain, m.Ranked, m.WantMeta = bit(flags, 0), bit(flags, 1), bit(flags, 2)
	m.Tag = r.str()
	m.In = r.arrivals()
	m.Trace = r.trailingTrace()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeDeliverResponse serializes a DeliverResponse as a binary frame.
func EncodeDeliverResponse(m *DeliverResponse) []byte {
	w := newBinWriter(kindDeliverResponse)
	w.frontier(m.Matches)
	if m.Span != nil {
		w.span(m.Span)
	}
	return w.b
}

// DecodeDeliverResponse parses a binary DeliverResponse frame.
func DecodeDeliverResponse(b []byte) (*DeliverResponse, error) {
	r := newBinReader(b, kindDeliverResponse)
	m := &DeliverResponse{}
	m.Matches = r.frontier()
	m.Span = r.trailingSpan()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeClosureRequest serializes a ClosureRequest as a binary frame.
func EncodeClosureRequest(m *ClosureRequest) []byte {
	w := newBinWriter(kindClosureRequest)
	w.u64(m.Epoch)
	w.u8(packFlags(m.Retain, m.WithDist))
	w.strs(m.From)
	w.strs(m.To)
	if m.Trace != "" {
		w.str(m.Trace)
	}
	return w.b
}

// DecodeClosureRequest parses a binary ClosureRequest frame.
func DecodeClosureRequest(b []byte) (*ClosureRequest, error) {
	r := newBinReader(b, kindClosureRequest)
	m := &ClosureRequest{}
	m.Epoch = r.u64()
	flags := r.u8()
	m.Retain, m.WithDist = bit(flags, 0), bit(flags, 1)
	m.From = r.strs()
	m.To = r.strs()
	m.Trace = r.trailingTrace()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeClosureResponse serializes a ClosureResponse as a binary frame.
func EncodeClosureResponse(m *ClosureResponse) []byte {
	w := newBinWriter(kindClosureResponse)
	w.dists(m.Dist)
	if m.Span != nil {
		w.span(m.Span)
	}
	return w.b
}

// DecodeClosureResponse parses a binary ClosureResponse frame.
func DecodeClosureResponse(b []byte) (*ClosureResponse, error) {
	r := newBinReader(b, kindClosureResponse)
	m := &ClosureResponse{}
	m.Dist = r.dists()
	m.Span = r.trailingSpan()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}
