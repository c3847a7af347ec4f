package msg

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"softqos/internal/telemetry"
)

// typedCodecError reports whether err is one of the codec's documented
// typed errors — the only errors the decoder may return.
func typedCodecError(err error) bool {
	for _, want := range []error{ErrNotBinary, ErrBadVersion, ErrFrameTooBig,
		ErrTruncated, ErrTrailingBytes, ErrBadKind} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzUnmarshal feeds arbitrary bytes to UnmarshalWire, the only parser
// of TCP input. The invariants are absolute: never panic, every error is
// one of the typed codec errors, and anything that decodes re-encodes
// byte-stably. The seed corpus holds every corpus message as a frame,
// the same messages as the JSON text a non-binary peer would write, and
// every deterministic malformation the unit tests pin.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range codecCorpus() {
		data, err := MarshalWire("/dest/addr", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, m := range codecCorpus() {
		data, err := json.Marshal(m.Body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion})
	f.Add([]byte{binMagic, 99, 1, kindAck})
	f.Add(append([]byte{binMagic, binVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	f.Add([]byte{binMagic, binVersion, 4, 77, 0, 0, 0})
	f.Add([]byte(`{"type":"ack","body":{"ref":"r","ok":true}}`))
	f.Add([]byte(`{"type":"nosuch","body":{}}`))
	f.Add([]byte{binMagic, binVersion, 3, kindRegister, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		to, m, err := UnmarshalWire(data) // must not panic
		if err != nil {
			if !typedCodecError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Decoded successfully: the message must survive a re-encode
		// byte-stably (decode → encode is a fixpoint).
		re, err := MarshalWire(to, m)
		if err != nil {
			t.Fatalf("re-marshal of decoded message failed: %v", err)
		}
		to2, m2, err := UnmarshalWire(re)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if to2 != to {
			t.Fatalf("to changed across round-trip: %q -> %q", to, to2)
		}
		re2, err := MarshalWire(to2, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixpoint:\n%x\n%x", re, re2)
		}
	})
}

// FuzzBinaryTruncation: for any decodable frame, every strict prefix
// must fail loudly with a typed error — the stream reader depends on
// truncation never decoding as success.
func FuzzBinaryTruncation(f *testing.F) {
	for _, m := range codecCorpus() {
		data, err := MarshalWire("/d", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 5)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if _, _, err := UnmarshalWire(data); err != nil {
			return // not a valid frame to begin with
		}
		if cut < 0 {
			cut = -cut
		}
		cut %= len(data) // strict prefix: 0..len-1
		_, _, err := UnmarshalWire(data[:cut])
		if err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame decoded successfully", cut, len(data))
		}
		if !typedCodecError(err) {
			t.Fatalf("prefix error is untyped: %v", err)
		}
	})
}

// FuzzPolicyDelta targets the policy-push kind specifically: arbitrary
// bytes never panic the decoder, strict prefixes of a valid delta frame
// fail with typed errors, and a delta built from fuzzed fields
// round-trips (canonical re-encode comparison, as in FuzzCodecRoundTrip).
func FuzzPolicyDelta(f *testing.F) {
	f.Add(uint64(7), uint64(6), "mpeg_play", "canary", "h-0", "P", 24.0, []byte{})
	f.Add(uint64(1), uint64(0), "x", "fleet", "", "", -0.5, []byte{binMagic})
	f.Add(uint64(1<<63), uint64(0), "ünïcode", "rollback", "h \"q\" <>&", "Q", 1e300, []byte{binMagic, binVersion})
	for _, m := range codecCorpus() {
		if _, ok := m.Body.(PolicyDelta); !ok {
			continue
		}
		data, err := MarshalWire("/d", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint64(2), uint64(1), "x", "fleet", "h", "P", 0.0, data)
	}
	f.Fuzz(func(t *testing.T, gen, prev uint64, exe, scope, host, policy string, val float64, raw []byte) {
		// Leg 1: the raw bytes through the decoder — must not panic, and
		// if they decode, truncation of every strict prefix must be loud
		// and typed.
		if _, _, err := UnmarshalWire(raw); err == nil {
			for n := 0; n < len(raw); n++ {
				_, _, err := UnmarshalWire(raw[:n])
				if err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte frame decoded successfully", n, len(raw))
				}
				if !typedCodecError(err) {
					t.Fatalf("prefix error is untyped: %v", err)
				}
			}
		}

		// Leg 2: a delta built from the fuzzed fields must round-trip.
		m := Message{From: "/mgmt/repo", Body: PolicyDelta{
			Generation: gen, Prev: prev, Executable: exe, Scope: scope,
			Hosts: []string{host},
			Policies: []PolicySpec{{Name: policy, Connective: "and",
				Conditions: []CondSpec{{Attribute: policy, Sensor: exe, Op: ">=", Value: val}},
				Actions:    []ActionSpec{{Target: exe, Op: "read", Args: []string{policy}}}}},
			Reason: scope}}
		data, err := MarshalWire("/dest", m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		to, got, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if to != "/dest" || got.From != m.From {
			t.Fatalf("envelope changed: to=%q from=%q", to, got.From)
		}
		again, err := MarshalWire(to, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("canonical encodings differ:\n%x\n%x", data, again)
		}
	})
}

// FuzzCodecRoundTrip builds messages from fuzzed field values and
// requires the codec to carry them losslessly (modulo the documented
// nil/empty normalization, checked via canonical re-encode). Strings go
// through as raw bytes and floats as raw bits, so no input is out of
// scope.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("/h/app/x/1", "/mgmt/agent", "frame_rate", 14.5, uint64(3), true, "trace#1")
	f.Add("", "", "", -0.25, uint64(0), false, "")
	f.Add("/h/über", "weird \"to\" <>&", "ünïcode\n\t", 1e308, uint64(1<<63), true, "t")
	f.Fuzz(func(t *testing.T, from, to, attr string, val float64, seq uint64, flag bool, traceID string) {
		id := Identity{Host: from, PID: int(seq % 1 << 16), Executable: attr, Application: "app"}
		msgs := []Message{
			{From: from, Body: Violation{ID: id, Policy: attr,
				Readings: map[string]float64{attr: val}, Overshoot: flag}},
			{From: from, Body: Report{Host: from, Values: map[string]float64{attr: val}, Ref: attr}},
			{From: from, Body: Heartbeat{ID: id, Seq: seq}},
			{From: from, Body: Ack{Ref: attr, OK: flag, Err: to}},
			{From: from, Body: Query{From: from, Keys: []string{attr, to}, Ref: attr}},
		}
		if traceID != "" {
			msgs[0].Trace = telemetry.TraceContext{TraceID: traceID, Span: int(seq % 1 << 20)}
		}
		for i, m := range msgs {
			data, err := MarshalWire(to, m)
			if err != nil {
				t.Fatalf("message %d: marshal: %v", i, err)
			}
			gotTo, got, err := UnmarshalWire(data)
			if err != nil {
				t.Fatalf("message %d: unmarshal: %v", i, err)
			}
			if gotTo != to {
				t.Fatalf("message %d: to = %q, want %q", i, gotTo, to)
			}
			if got.From != m.From || got.Trace != m.Trace {
				t.Fatalf("message %d: envelope changed: %+v", i, got)
			}
			again, err := MarshalWire(gotTo, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("message %d: canonical encodings differ:\n%x\n%x", i, data, again)
			}
		}
	})
}
