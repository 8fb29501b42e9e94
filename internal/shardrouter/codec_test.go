package shardrouter

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// sample messages spanning the codec's edge cases: nil vs empty
// slices/maps, metadata present and absent, zero and large values.
func sampleStepRequests() []*StepRequest {
	return []*StepRequest{
		{},
		{Epoch: 7, Pin: true, Retain: true, Ranked: true, Seed: true, Axis: "//", Tag: "article", WantMeta: true},
		{
			Epoch: 1 << 40, Axis: "/", Tag: "*",
			Frontier: []FrontierElem{{ID: 3, Score: 0.5, Doc: "a.xml", Local: 2, Tag: "x"}, {ID: -1}},
			ProbeOut: []string{"a.xml:1", "b.xml:0", ""},
		},
		{Epoch: 3, Axis: "//", Tag: "a", Trace: "deadbeefcafef00d"},
	}
}

func sampleStepResponses() []*StepResponse {
	return []*StepResponse{
		{},
		{Epoch: 9, Scope: 4, SeqEpoch: true, Frontier: []FrontierElem{}},
		{
			Epoch: 2, Scope: 3,
			Frontier: []FrontierElem{{ID: 1, Score: 1}},
			Out: map[string][]Arrival{
				"a.xml:0": {{Base: 1, Dist: 2}},
				"b.xml:1": nil,
			},
		},
		{
			Frontier: []FrontierElem{{ID: 5, Doc: "a.xml", Local: 5, Tag: "author"}},
			Out:      map[string][]Arrival{},
		},
		{Epoch: 4, Span: &Span{Trace: "deadbeefcafef00d", QueueUs: 12, EvalUs: 3400, EncodeUs: 9}},
	}
}

func sampleDeliverRequests() []*DeliverRequest {
	return []*DeliverRequest{
		{},
		{Epoch: 11, Retain: true, Ranked: true, WantMeta: true, Tag: "cite",
			In: map[string][]Arrival{"x.xml:0": {{Base: 0.25, Dist: 3}, {}}}},
		{In: map[string][]Arrival{}},
		{Tag: "cite", Trace: "0123456789abcdef"},
	}
}

func sampleDeliverResponses() []*DeliverResponse {
	return []*DeliverResponse{
		{},
		{Matches: []FrontierElem{}},
		{Matches: []FrontierElem{{ID: 2, Score: 0.125, Doc: "d", Local: 1, Tag: "t"}}},
		{Span: &Span{Trace: "0123456789abcdef", EvalUs: 77}},
	}
}

func sampleClosureRequests() []*ClosureRequest {
	return []*ClosureRequest{
		{},
		{Epoch: 5, Retain: true, WithDist: true, From: []string{"a:0", "b:1"}, To: []string{"c:2"}},
		{From: []string{}, To: nil},
		{Epoch: 6, From: []string{"a:0"}, To: []string{"b:1"}, Trace: "feedfacefeedface"},
	}
}

func sampleClosureResponses() []*ClosureResponse {
	return []*ClosureResponse{
		{},
		{Dist: []uint32{}},
		{Dist: []uint32{0, 1, ^uint32(0)}},
		{Dist: []uint32{2}, Span: &Span{Trace: "feedfacefeedface", QueueUs: 1, EvalUs: 2, EncodeUs: 3}},
	}
}

// TestCodecRoundTrip: decode(encode(x)) == x exactly, nil-ness of
// slices and maps included.
func TestCodecRoundTrip(t *testing.T) {
	for i, m := range sampleStepRequests() {
		got, err := DecodeStepRequest(EncodeStepRequest(m))
		if err != nil {
			t.Fatalf("StepRequest[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("StepRequest[%d]: got %+v want %+v", i, got, m)
		}
	}
	for i, m := range sampleStepResponses() {
		got, err := DecodeStepResponse(EncodeStepResponse(m))
		if err != nil {
			t.Fatalf("StepResponse[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("StepResponse[%d]: got %+v want %+v", i, got, m)
		}
	}
	for i, m := range sampleDeliverRequests() {
		got, err := DecodeDeliverRequest(EncodeDeliverRequest(m))
		if err != nil {
			t.Fatalf("DeliverRequest[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("DeliverRequest[%d]: got %+v want %+v", i, got, m)
		}
	}
	for i, m := range sampleDeliverResponses() {
		got, err := DecodeDeliverResponse(EncodeDeliverResponse(m))
		if err != nil {
			t.Fatalf("DeliverResponse[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("DeliverResponse[%d]: got %+v want %+v", i, got, m)
		}
	}
	for i, m := range sampleClosureRequests() {
		got, err := DecodeClosureRequest(EncodeClosureRequest(m))
		if err != nil {
			t.Fatalf("ClosureRequest[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("ClosureRequest[%d]: got %+v want %+v", i, got, m)
		}
	}
	for i, m := range sampleClosureResponses() {
		got, err := DecodeClosureResponse(EncodeClosureResponse(m))
		if err != nil {
			t.Fatalf("ClosureResponse[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("ClosureResponse[%d]: got %+v want %+v", i, got, m)
		}
	}
}

// TestCodecMalformed: every way a frame can be wrong decodes to a typed
// ErrBadFrame, never a panic or a silent partial message.
func TestCodecMalformed(t *testing.T) {
	valid := EncodeStepRequest(sampleStepRequests()[2])

	// Every truncation of a valid frame must fail.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeStepRequest(valid[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncated at %d: err = %v, want ErrBadFrame", n, err)
		}
	}

	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = b
		return out
	}
	cases := map[string][]byte{
		"bad magic 0":    mutate(0, 'X'),
		"bad magic 1":    mutate(1, 'X'),
		"bad version":    mutate(2, 99),
		"wrong kind":     mutate(3, kindDeliverRequest),
		"unknown kind":   mutate(3, 200),
		"trailing bytes": append(append([]byte(nil), valid...), 0),
		"huge count": {binMagic0, binMagic1, binVersion, kindStepRequest,
			0, 0, 0, 0, 0, 0, 0, 0, // epoch
			0,                      // flags
			0, 0, 0, 0, 0, 0, 0, 0, // axis, tag (empty)
			0xfe, 0xff, 0xff, 0xff}, // frontier count ~4B
		"empty": nil,
	}
	for name, b := range cases {
		if _, err := DecodeStepRequest(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}

	// Cross-kind confusion: a valid frame of one kind must be rejected
	// by every other decoder.
	if _, err := DecodeDeliverRequest(valid); !errors.Is(err, ErrBadFrame) {
		t.Errorf("step frame into deliver decoder: err = %v, want ErrBadFrame", err)
	}
	if _, err := DecodeClosureResponse(valid); !errors.Is(err, ErrBadFrame) {
		t.Errorf("step frame into closure decoder: err = %v, want ErrBadFrame", err)
	}
}

// sameMessage is reflect.DeepEqual on two decoded messages, except
// that a NaN float matches a NaN: a frame may carry any float bits,
// and NaN never equals itself.
func sameMessage(a, b any) bool {
	unNaN(reflect.ValueOf(a))
	unNaN(reflect.ValueOf(b))
	return reflect.DeepEqual(a, b)
}

// unNaN replaces, in place, every NaN float64 reachable from v with
// +Inf.
func unNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			unNaN(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			unNaN(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			unNaN(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			unNaN(v.MapIndex(k)) // slice values share their backing array
		}
	case reflect.Float64:
		if math.IsNaN(v.Float()) {
			v.SetFloat(math.Inf(1))
		}
	}
}

// FuzzCodec: any byte string either fails to decode or round-trips
// exactly through re-encode + re-decode, for all six message kinds.
func FuzzCodec(f *testing.F) {
	for _, m := range sampleStepRequests() {
		f.Add(EncodeStepRequest(m))
	}
	for _, m := range sampleStepResponses() {
		f.Add(EncodeStepResponse(m))
	}
	for _, m := range sampleDeliverRequests() {
		f.Add(EncodeDeliverRequest(m))
	}
	for _, m := range sampleDeliverResponses() {
		f.Add(EncodeDeliverResponse(m))
	}
	for _, m := range sampleClosureRequests() {
		f.Add(EncodeClosureRequest(m))
	}
	for _, m := range sampleClosureResponses() {
		f.Add(EncodeClosureResponse(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := DecodeStepRequest(b); err == nil {
			m2, err2 := DecodeStepRequest(EncodeStepRequest(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("StepRequest re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
		if m, err := DecodeStepResponse(b); err == nil {
			m2, err2 := DecodeStepResponse(EncodeStepResponse(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("StepResponse re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
		if m, err := DecodeDeliverRequest(b); err == nil {
			m2, err2 := DecodeDeliverRequest(EncodeDeliverRequest(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("DeliverRequest re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
		if m, err := DecodeDeliverResponse(b); err == nil {
			m2, err2 := DecodeDeliverResponse(EncodeDeliverResponse(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("DeliverResponse re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
		if m, err := DecodeClosureRequest(b); err == nil {
			m2, err2 := DecodeClosureRequest(EncodeClosureRequest(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("ClosureRequest re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
		if m, err := DecodeClosureResponse(b); err == nil {
			m2, err2 := DecodeClosureResponse(EncodeClosureResponse(m))
			if err2 != nil || !sameMessage(m, m2) {
				t.Fatalf("ClosureResponse re-decode: err=%v\n m=%+v\nm2=%+v", err2, m, m2)
			}
		}
	})
}
