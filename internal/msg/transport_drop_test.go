package msg

import (
	"errors"
	"testing"
	"time"

	"softqos/internal/telemetry/eventlog"
)

// TestDropLoggerStructuredReport verifies the invalid-envelope drop path
// reports node, endpoints, kind and error as one msg/invalid_drop
// event-log record, and counts the drop.
func TestDropLoggerStructuredReport(t *testing.T) {
	nt, err := NewNetTransport("h1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	lg := eventlog.New(func() time.Duration { return 0 }, 16)
	nt.SetEventLog(lg)

	// A directive without an action decodes fine but fails Validate.
	bad := Message{From: "/h1/coord", Body: Directive{Target: "frame_skip"}}
	err = nt.Send("/h1/agent", bad)
	var se *SendError
	if !errors.As(err, &se) || se.Kind != ErrInvalid {
		t.Fatalf("send error = %v, want ErrInvalid SendError", err)
	}
	if nt.DroppedInvalid() != 1 {
		t.Errorf("DroppedInvalid = %d, want 1", nt.DroppedInvalid())
	}

	// A body type the codec does not know reports kind "?".
	_ = nt.Send("/h1/agent", Message{From: "/h1/coord", Body: struct{ X int }{1}})

	recs := lg.Records(eventlog.Query{})
	if len(recs) != 2 {
		t.Fatalf("event-log records = %d, want 2: %+v", len(recs), recs)
	}
	for i, wantKind := range []string{"directive", "?"} {
		r := &recs[i]
		if r.Component != "msg" || r.Code != "invalid_drop" || r.Level != eventlog.Warn {
			t.Errorf("record %d = %s/%s at %v, want msg/invalid_drop at warn", i, r.Component, r.Code, r.Level)
		}
		if r.FieldString("node") != "h1" || r.FieldString("from") != "/h1/coord" ||
			r.FieldString("to") != "/h1/agent" || r.FieldString("kind") != wantKind {
			t.Errorf("record %d fields = %+v, want node h1, /h1/coord -> /h1/agent, kind %s", i, r.Fields, wantKind)
		}
		if r.FieldString("error") == "" {
			t.Errorf("record %d carries no error", i)
		}
	}
	if nt.DroppedInvalid() != 2 {
		t.Errorf("DroppedInvalid = %d, want 2", nt.DroppedInvalid())
	}
}
