package msg

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"softqos/internal/telemetry"
)

// codecCorpus is one message of every type with awkward field contents:
// empty strings, unicode, quoting and escaping hazards, zero, negative
// and extreme numbers.
func codecCorpus() []Message {
	id := Identity{Host: "h-1", PID: 4321, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer"}
	return []Message{
		{From: "/h/app/x/1", Body: Register{ID: id, Sensors: []string{"fps_sensor"}}},
		{From: "", Body: Register{}},
		{From: "/mgmt/agent", Body: PolicySet{ID: id, Policies: []PolicySpec{{
			Name: "P", Connective: "and",
			Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "s", Op: ">=", Value: 24}},
			Actions:    []ActionSpec{{Target: "s", Op: "read", Args: []string{"frame_rate"}}},
		}, {Name: "Q", Connective: "or"}}}},
		{From: "/h/app/x/1", Body: Violation{ID: id, Policy: "P",
			Readings: map[string]float64{"frame_rate": 14.5, "z": -0.25, "a": 0}, Overshoot: true}},
		{From: "/h/app/x/1", Trace: telemetry.TraceContext{TraceID: "/h/app/x/1#7", Span: 3},
			Body: Violation{ID: id, Policy: "P"}},
		{From: "/mgmt/dm", Body: Query{From: "/mgmt/dm", Keys: []string{"cpu_load", "proc_cpu:42"}, Ref: "q1"}},
		{From: "/h/hm", Body: Report{Host: "h", Values: map[string]float64{"cpu_load": 3.5}, Ref: "q1"}},
		{From: "/h/hm", Body: Alarm{ID: id, Policy: "P", Suspect: "network",
			Readings: map[string]float64{"frame_rate": 10}}},
		{From: "/mgmt/dm", Body: Directive{From: "/mgmt/dm", Action: "boost_cpu", Target: "mpeg_serv", Amount: -2.5}},
		{From: "/h/hm", Body: Ack{Ref: "boost_cpu", OK: true}},
		{From: "/h/hm", Body: Ack{Ref: "x", OK: false, Err: "no such process"}},
		{From: "/mgmt/agent", Body: Nack{ID: id, Ref: "register", Reason: "repository \"down\" <unavailable> & gone"}},
		{From: "/h/app/x/1", Body: Heartbeat{ID: id, Seq: 18446744073709551615}},
		{From: "/h/über/x/1", Body: Ack{Ref: "ünïcode\n\ttab"}},
		{From: "/mgmt/dm-0", Body: AlarmBatch{Tier: "domain",
			Alarms: []BatchedAlarm{
				{Alarm: Alarm{ID: id, Policy: "P", Suspect: "network",
					Readings: map[string]float64{"cpu_load": 3.5, "frame_rate": 10}},
					Count: 4, Severity: 2},
				{Alarm: Alarm{ID: id, Policy: "Q"}, Count: 1},
			},
			Summary: map[string]float64{"domain_saturation": 0.125, "hosts": 64}}},
		{From: "/mgmt/dm-1", Body: AlarmBatch{Tier: "domain",
			Summary: map[string]float64{"domain_saturation": 0}}},
		{From: "/h/hm-3", Trace: telemetry.TraceContext{TraceID: "/h/app/x/1#9", Span: 2},
			Body: TelemetrySummary{Tier: "host", Source: "/h/hm-3", Seq: 12, Hosts: 1,
				Counters: map[string]float64{"fleet.alarms_raised": 3, "ünïcode": -0.5},
				Maxima:   map[string]float64{"fleet.cpu_load_max": 7.25},
				Sketches: []telemetry.NamedSketchSnapshot{
					{Name: "fleet.load", Sketch: telemetry.SketchSnapshot{
						Count: 7, Sum: 21.5, Min: 0, Max: 9.5, Zero: 2,
						Base: -3, Counts: []uint64{1, 0, 3, 1}}},
					{Name: "fleet.detect_adapt_ns", Sketch: telemetry.SketchSnapshot{
						Count: 1, Sum: 5e6, Min: 5e6, Max: 5e6,
						Base: 317, Counts: []uint64{1}}},
				}}},
		{From: "/mgmt/dm-0", Body: TelemetrySummary{Tier: "domain", Source: "/mgmt/dm-0", Seq: 1}},
		{From: "/mgmt/repo", Body: PolicyDelta{Generation: 7, Prev: 6,
			Executable: "mpeg_play", Scope: "canary",
			Hosts: []string{"h-0", "h-3"},
			Policies: []PolicySpec{{
				Name: "P", Connective: "and",
				Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "s", Op: ">=", Value: 24}},
				Actions:    []ActionSpec{{Target: "s", Op: "read", Args: []string{"frame_rate"}}},
			}},
			Reason: "canary start <g7> \"bake\""}},
		{From: "/mgmt/repo", Trace: telemetry.TraceContext{TraceID: "/mgmt/repo#4", Span: 1},
			Body: PolicyDelta{Generation: 8, Prev: 7, Executable: "mpeg_play",
				Scope: "rollback", Reason: "fast-burn breach"}},
		{From: "/mgmt/repo", Body: PolicyDelta{Generation: 18446744073709551615,
			Prev: 18446744073709551614, Executable: "ünïcode", Scope: "fleet"}},
	}
}

// TestBinaryRoundTrip: every corpus message survives the binary codec
// with its routing address, trace context and body intact.
func TestBinaryRoundTrip(t *testing.T) {
	for i, m := range codecCorpus() {
		data, err := MarshalWire("/dest/addr", m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		to, got, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if to != "/dest/addr" {
			t.Errorf("message %d: to = %q", i, to)
		}
		assertSameMessage(t, i, m, got)
	}
}

// assertSameMessage compares a decoded message against the original.
// The decoder returns pointer bodies and normalizes empty maps/slices
// to nil, so the comparison normalizes the original the same way
// through an independent reference codec: a reflective encoding/json
// round-trip of the body.
func assertSameMessage(t *testing.T, i int, want, got Message) {
	t.Helper()
	if got.From != want.From {
		t.Errorf("message %d: from = %q, want %q", i, got.From, want.From)
	}
	if got.Trace != want.Trace {
		t.Errorf("message %d: trace = %+v, want %+v", i, got.Trace, want.Trace)
	}
	wantTag, _ := typeTag(want.Body)
	raw, err := json.Marshal(want.Body)
	if err != nil {
		t.Fatal(err)
	}
	norm := reflect.New(reflect.Indirect(reflect.ValueOf(want.Body)).Type())
	if err := json.Unmarshal(raw, norm.Interface()); err != nil {
		t.Fatal(err)
	}
	gotTag, err := typeTag(got.Body)
	if err != nil {
		t.Fatalf("message %d: %v", i, err)
	}
	if gotTag != wantTag {
		t.Fatalf("message %d: type %q, want %q", i, gotTag, wantTag)
	}
	if !reflect.DeepEqual(got.Body, norm.Interface()) {
		t.Errorf("message %d: body = %#v, want %#v", i, got.Body, norm.Interface())
	}
}

// TestBinaryFrameErrors: malformed frames come back as the documented
// typed errors, never panics, never silent success.
func TestBinaryFrameErrors(t *testing.T) {
	good, err := MarshalWire("/d", Message{From: "/s", Body: Ack{Ref: "r", OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", []byte{}, ErrNotBinary},
		{"json-line", []byte(`{"from":"/s","type":"ack","body":{"ref":"r","ok":true}}`), ErrNotBinary},
		{"magic-only", []byte{binMagic}, ErrTruncated},
		{"bad-version", []byte{binMagic, 99, 1, kindAck}, ErrBadVersion},
		{"no-length", []byte{binMagic, binVersion}, ErrTruncated},
		{"oversized-claim", append([]byte{binMagic, binVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), ErrFrameTooBig},
		{"truncated-payload", good[:len(good)-3], ErrTruncated},
		{"trailing-bytes", append(append([]byte(nil), good...), 0xAB), ErrTrailingBytes},
		{"bad-kind", []byte{binMagic, binVersion, 4, 77, 0, 0, 0}, ErrBadKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := UnmarshalWire(tc.data)
			if err == nil {
				t.Fatal("malformed frame decoded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestBinaryTruncationSweep: every prefix of a valid frame errors
// cleanly (the streaming reader depends on truncation being loud).
func TestBinaryTruncationSweep(t *testing.T) {
	for i, m := range codecCorpus() {
		data, err := MarshalWire("/dest", m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if _, _, err := UnmarshalWire(data[:n]); err == nil {
				t.Fatalf("message %d: %d-byte prefix of %d decoded without error", i, n, len(data))
			}
		}
	}
}

// TestBinaryEncodingDeterministic: equal messages (including map-heavy
// ones) encode to equal bytes, so byte accounting and goldens are a
// pure function of traffic.
func TestBinaryEncodingDeterministic(t *testing.T) {
	m := Message{From: "/s", Body: Report{Host: "h", Ref: "r",
		Values: map[string]float64{"c": 3, "a": 1, "b": 2, "e": 5, "d": 4}}}
	first, err := MarshalWire("/d", m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		again, err := MarshalWire("/d", m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("iteration %d: encoding varied:\n%x\n%x", i, first, again)
		}
	}
}

// TestMarshalWireRefusesOversize: a payload over MaxFrameBytes is
// refused at encode time, since every receiver would reject its length
// prefix and drop the connection.
func TestMarshalWireRefusesOversize(t *testing.T) {
	m := bigPolicySet(MaxFrameBytes)
	if _, err := MarshalWire("/d", m); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("MarshalWire(>%d-byte PolicySet) = %v, want ErrFrameTooBig", MaxFrameBytes, err)
	}
	atCap := bigPolicySet(MaxFrameBytes - 64)
	if _, err := MarshalWire("/d", atCap); err != nil {
		t.Fatalf("PolicySet just under the cap: %v", err)
	}
}

// bigPolicySet returns a PolicySet whose payload exceeds n bytes.
func bigPolicySet(n int) Message {
	id := Identity{Host: "h", PID: 1, Executable: "x"}
	return Message{From: "/mgmt/agent", Body: PolicySet{ID: id,
		Policies: []PolicySpec{{Name: strings.Repeat("p", n+1), Connective: "and"}}}}
}
