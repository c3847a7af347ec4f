package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"softqos/internal/telemetry/eventlog"
	"softqos/internal/telemetry/export"
)

// logsRecord mirrors the wire shape of one /debug/qos/logs record for
// decoding in tests.
type logsRecord struct {
	Seq       uint64         `json:"seq"`
	Level     string         `json:"level"`
	Component string         `json:"component"`
	Code      string         `json:"code"`
	Trace     string         `json:"trace"`
	Span      int            `json:"span"`
	Fields    map[string]any `json:"fields"`
}

// TestEventLogEndToEnd is the acceptance path for the third pillar: a
// seeded run where faults force evictions and policy churn forces
// rollbacks, scraped over HTTP. /debug/qos/logs must show the
// control-plane decisions — the eviction, the rollback with its rule
// provenance — and every trace-carrying record must resolve into the
// tracer's episode log, so an operator can walk from a log line to the
// causal tree that explains it.
func TestEventLogEndToEnd(t *testing.T) {
	cfg := churnCfg(11)
	cfg.Observe = true
	sys := Build(cfg)
	sys.Run(30*time.Second, 3*time.Minute)

	srv, err := export.Serve("127.0.0.1:0", sys.Metrics, sys.Tracer,
		export.WithEventLog(sys.Log))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(query string) []logsRecord {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/qos/logs%s", srv.Addr(), query))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var doc struct {
			Records []logsRecord `json:"records"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", query, err)
		}
		return doc.Records
	}

	recs := get("")
	if len(recs) == 0 {
		t.Fatal("no records on /debug/qos/logs after a chaos+churn run")
	}

	byCode := func(component, code string) []logsRecord {
		var out []logsRecord
		for _, r := range recs {
			if r.Component == component && r.Code == code {
				out = append(out, r)
			}
		}
		return out
	}

	// Fault-induced eviction decision, at Warn.
	evictions := byCode("hostmanager", "agent_evicted")
	if len(evictions) == 0 {
		t.Error("no agent_evicted decision on the log surface")
	}
	for _, r := range evictions {
		if r.Level != "warn" {
			t.Errorf("agent_evicted at level %q, want warn", r.Level)
		}
	}

	// Rollback decision with rule provenance.
	rollbacks := byCode("rollout", "rolled_back")
	if len(rollbacks) == 0 {
		t.Fatal("no rolled_back decision on the log surface")
	}
	for _, r := range rollbacks {
		rule, _ := r.Fields["rule"].(string)
		if rule == "" {
			t.Errorf("rollback record %d carries no rule provenance: %v", r.Seq, r.Fields)
		}
		if r.Trace == "" {
			t.Errorf("rollback record %d carries no trace context", r.Seq)
		}
	}

	// Every trace-carrying record resolves into the tracer.
	ids := make(map[string]bool)
	for _, tr := range sys.Tracer.Traces() {
		ids[tr.ID] = true
	}
	traced := 0
	for _, r := range recs {
		if r.Trace == "" {
			continue
		}
		traced++
		if !ids[r.Trace] {
			t.Errorf("record %d (%s/%s) carries trace %q not present in the tracer",
				r.Seq, r.Component, r.Code, r.Trace)
		}
	}
	if traced == 0 {
		t.Error("no record on the surface carries a trace context")
	}

	// The level filter serves the decisions-only view an operator pages
	// through first: only Warn+ records, still including both decisions.
	warnPlus := get("?level=warn")
	for _, r := range warnPlus {
		if r.Level != "warn" && r.Level != "error" {
			t.Fatalf("?level=warn leaked a %s record", r.Level)
		}
	}
	if len(warnPlus) == 0 {
		t.Error("?level=warn returned nothing despite eviction and rollback decisions")
	}

	// And the NDJSON dump (the qosd -report artifact) carries the same
	// record stream.
	if got := len(sys.Log.Records(eventlog.Query{})); got != len(recs) {
		t.Errorf("surface shows %d records, ring holds %d", len(recs), got)
	}
}
