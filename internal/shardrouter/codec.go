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
// decode(encode(x)) == x exactly, nil-ness included). Each message
// states its field order once, in its code method, which the encoder
// and the decoder both run.
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

// binVersion changes whenever a message's field order does, so a peer
// speaking another layout is refused, not misread.
const (
	binMagic0  = 'H'
	binMagic1  = 'B'
	binVersion = 2
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

// minFrontierElem is a frontier element's 4+8+4 fixed bytes plus two
// string prefixes.
const minFrontierElem = 4 + 8 + 4 + 4 + 4

// frame runs a message's field order in one direction: encoding
// appends each field to b; decoding (read) parses it from b at off and
// records the first failure in err, after which every field reads as
// its zero value.
type frame struct {
	b    []byte
	off  int
	err  error
	read bool
}

// message is a frame payload: code runs its fields in wire order.
type message interface{ code(f *frame) }

func encode(kind byte, m message) []byte {
	f := &frame{b: []byte{binMagic0, binMagic1, binVersion, kind}}
	m.code(f)
	return f.b
}

// decode parses a frame of the given kind into a new M and checks that
// it was consumed exactly.
func decode[M any, P interface {
	*M
	message
}](b []byte, kind byte) (*M, error) {
	f := &frame{b: b, read: true}
	switch {
	case len(b) < 4 || b[0] != binMagic0 || b[1] != binMagic1:
		f.err = fmt.Errorf("%w: bad magic", ErrBadFrame)
	case b[2] != binVersion:
		f.err = fmt.Errorf("%w: unknown version %d", ErrBadFrame, b[2])
	case b[3] != kind:
		f.err = fmt.Errorf("%w: message kind %d, want %d", ErrBadFrame, b[3], kind)
	default:
		f.off = 4
	}
	m := P(new(M))
	m.code(f)
	if f.err == nil && f.off != len(b) {
		f.err = fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b)-f.off)
	}
	if f.err != nil {
		return nil, f.err
	}
	return m, nil
}

func (f *frame) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

// take consumes n bytes when decoding; nil once the frame has failed.
func (f *frame) take(n int) []byte {
	if f.err != nil {
		return nil
	}
	if len(f.b)-f.off < n {
		f.fail("truncated at offset %d (need %d bytes)", f.off, n)
		return nil
	}
	out := f.b[f.off : f.off+n]
	f.off += n
	return out
}

func (f *frame) u32(p *uint32) {
	if !f.read {
		f.b = binary.LittleEndian.AppendUint32(f.b, *p)
	} else if b := f.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (f *frame) u64(p *uint64) {
	if !f.read {
		f.b = binary.LittleEndian.AppendUint64(f.b, *p)
	} else if b := f.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

func (f *frame) i32(p *int32) {
	v := uint32(*p)
	f.u32(&v)
	*p = int32(v)
}

func (f *frame) f64(p *float64) {
	v := math.Float64bits(*p)
	f.u64(&v)
	*p = math.Float64frombits(v)
}

// flags packs up to eight booleans into one byte, the first in bit 0.
func (f *frame) flags(bits ...*bool) {
	var v byte
	for i, p := range bits {
		if *p {
			v |= 1 << i
		}
	}
	if !f.read {
		f.b = append(f.b, v)
		return
	}
	if b := f.take(1); b != nil {
		for i, p := range bits {
			*p = b[0]&(1<<i) != 0
		}
	}
}

func (f *frame) str(p *string) {
	n := uint32(len(*p))
	f.u32(&n)
	if !f.read {
		f.b = append(f.b, *p...)
		return
	}
	if f.err == nil && uint64(n) > uint64(len(f.b)-f.off) {
		f.fail("string length %d exceeds remaining %d bytes", n, len(f.b)-f.off)
	}
	*p = string(f.take(int(n)))
}

// count codes a slice or map length prefix and returns the element
// count, -1 for nil. A decoded count is checked against the remaining
// bytes at minElem bytes per element, so a corrupt prefix cannot force
// a huge allocation.
func (f *frame) count(n int, isNil bool, minElem int) int {
	v := uint32(n)
	if isNil {
		v = nilLen
	}
	f.u32(&v)
	switch {
	case f.err != nil:
		return 0
	case v == nilLen:
		return -1
	case f.read && uint64(v)*uint64(minElem) > uint64(len(f.b)-f.off):
		f.fail("count %d exceeds remaining %d bytes", v, len(f.b)-f.off)
		return 0
	}
	return int(v)
}

// codeSlice codes a length-prefixed slice, elem coding each element in
// place.
func codeSlice[T any](f *frame, s *[]T, minElem int, elem func(*T)) {
	n := f.count(len(*s), *s == nil, minElem)
	if f.read {
		if n < 0 {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

func (f *frame) strs(p *[]string) { codeSlice(f, p, 4, f.str) }

func (f *frame) dists(p *[]uint32) { codeSlice(f, p, 4, f.u32) }

func (f *frame) frontier(p *[]FrontierElem) {
	codeSlice(f, p, minFrontierElem, func(fe *FrontierElem) {
		f.i32(&fe.ID)
		f.f64(&fe.Score)
		f.str(&fe.Doc)
		f.i32(&fe.Local)
		f.str(&fe.Tag)
	})
}

func (f *frame) arrivalList(p *[]Arrival) {
	codeSlice(f, p, 12, func(a *Arrival) {
		f.f64(&a.Base)
		f.u32(&a.Dist)
	})
}

func (f *frame) arrivals(p *map[string][]Arrival) {
	n := f.count(len(*p), *p == nil, 8)
	if !f.read {
		for spec, arr := range *p {
			f.str(&spec)
			f.arrivalList(&arr)
		}
		return
	}
	if n < 0 {
		return
	}
	*p = make(map[string][]Arrival, n)
	for i := 0; i < n && f.err == nil; i++ {
		var spec string
		var arr []Arrival
		f.str(&spec)
		f.arrivalList(&arr)
		(*p)[spec] = arr
	}
}

// trailing reports whether a frame carries the optional trailing
// section: on encode when present says so, on decode when bytes remain
// after the base fields (an untraced peer ends the frame there).
func (f *frame) trailing(present bool) bool {
	if f.read {
		return f.err == nil && f.off < len(f.b)
	}
	return present
}

// trace codes a request's optional trailing trace ID.
func (f *frame) trace(p *string) {
	if f.trailing(*p != "") {
		f.str(p)
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

// span codes a response's optional trailing Span. EncodeUs is written
// last so StampEncodeUs can patch it after the frame is built.
func (f *frame) span(p **Span) {
	if !f.trailing(*p != nil) {
		return
	}
	if f.read {
		*p = &Span{}
	}
	sp := *p
	f.str(&sp.Trace)
	for _, us := range []*int64{&sp.QueueUs, &sp.EvalUs, &sp.EncodeUs} {
		v := clampUs(*us)
		f.u32(&v)
		if f.read {
			*us = int64(v)
		}
	}
}

// StampEncodeUs overwrites the EncodeUs field — the final 4 bytes — of
// a frame encoded with a non-nil Span, letting the server report the
// frame's own serialization time inside it.
func StampEncodeUs(frame []byte, d time.Duration) {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], clampUs(d.Microseconds()))
}

// --- messages ---------------------------------------------------------

func (m *StepRequest) code(f *frame) {
	f.u64(&m.Epoch)
	f.flags(&m.Pin, &m.Retain, &m.Ranked, &m.Seed, &m.WantMeta)
	f.str(&m.Axis)
	f.str(&m.Tag)
	f.frontier(&m.Frontier)
	f.strs(&m.ProbeOut)
	f.trace(&m.Trace)
}

func (m *StepResponse) code(f *frame) {
	f.u64(&m.Epoch)
	f.u64(&m.Scope)
	f.flags(&m.SeqEpoch)
	f.frontier(&m.Frontier)
	f.arrivals(&m.Out)
	f.span(&m.Span)
}

func (m *DeliverRequest) code(f *frame) {
	f.u64(&m.Epoch)
	f.flags(&m.Retain, &m.Ranked, &m.WantMeta)
	f.str(&m.Tag)
	f.arrivals(&m.In)
	f.trace(&m.Trace)
}

func (m *DeliverResponse) code(f *frame) {
	f.frontier(&m.Matches)
	f.span(&m.Span)
}

func (m *ClosureRequest) code(f *frame) {
	f.u64(&m.Epoch)
	f.flags(&m.Retain, &m.WithDist)
	f.strs(&m.From)
	f.strs(&m.To)
	f.trace(&m.Trace)
}

func (m *ClosureResponse) code(f *frame) {
	f.dists(&m.Dist)
	f.span(&m.Span)
}

// EncodeStepRequest serializes a StepRequest as a binary frame.
func EncodeStepRequest(m *StepRequest) []byte { return encode(kindStepRequest, m) }

// DecodeStepRequest parses a binary StepRequest frame; malformed
// frames wrap ErrBadFrame, as for every Decode function.
func DecodeStepRequest(b []byte) (*StepRequest, error) {
	return decode[StepRequest](b, kindStepRequest)
}

// EncodeStepResponse serializes a StepResponse as a binary frame.
func EncodeStepResponse(m *StepResponse) []byte { return encode(kindStepResponse, m) }

// DecodeStepResponse parses a binary StepResponse frame.
func DecodeStepResponse(b []byte) (*StepResponse, error) {
	return decode[StepResponse](b, kindStepResponse)
}

// EncodeDeliverRequest serializes a DeliverRequest as a binary frame.
func EncodeDeliverRequest(m *DeliverRequest) []byte { return encode(kindDeliverRequest, m) }

// DecodeDeliverRequest parses a binary DeliverRequest frame.
func DecodeDeliverRequest(b []byte) (*DeliverRequest, error) {
	return decode[DeliverRequest](b, kindDeliverRequest)
}

// EncodeDeliverResponse serializes a DeliverResponse as a binary frame.
func EncodeDeliverResponse(m *DeliverResponse) []byte { return encode(kindDeliverResponse, m) }

// DecodeDeliverResponse parses a binary DeliverResponse frame.
func DecodeDeliverResponse(b []byte) (*DeliverResponse, error) {
	return decode[DeliverResponse](b, kindDeliverResponse)
}

// EncodeClosureRequest serializes a ClosureRequest as a binary frame.
func EncodeClosureRequest(m *ClosureRequest) []byte { return encode(kindClosureRequest, m) }

// DecodeClosureRequest parses a binary ClosureRequest frame.
func DecodeClosureRequest(b []byte) (*ClosureRequest, error) {
	return decode[ClosureRequest](b, kindClosureRequest)
}

// EncodeClosureResponse serializes a ClosureResponse as a binary frame.
func EncodeClosureResponse(m *ClosureResponse) []byte { return encode(kindClosureResponse, m) }

// DecodeClosureResponse parses a binary ClosureResponse frame.
func DecodeClosureResponse(b []byte) (*ClosureResponse, error) {
	return decode[ClosureResponse](b, kindClosureResponse)
}
