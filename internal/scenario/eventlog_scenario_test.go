package scenario

import (
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/telemetry/eventlog"
)

// eventLogRun builds cfg with Observe armed, runs warmup+measure, and
// renders the full event-log ring as NDJSON — the qosd -report
// artifact. sample, when above 1, keeps 1-in-sample sub-warning
// records per (component, code), seeded from the scenario seed.
func eventLogRun(t *testing.T, cfg Config, sample int, warmup, measure time.Duration) (*System, string) {
	t.Helper()
	cfg.Observe = true
	sys := Build(cfg)
	if sys.Log == nil {
		t.Fatal("Observe did not arm the event log")
	}
	if sample > 1 {
		sys.Log.SetSampling(sample, sys.Cfg.Seed)
	}
	sys.Run(warmup, measure)
	var b strings.Builder
	if err := sys.Log.WriteNDJSON(&b, eventlog.Query{}); err != nil {
		t.Fatal(err)
	}
	return sys, b.String()
}

// TestDeterminismEventLogGolden extends the determinism guarantee to the
// third pillar: under the seeded chaos schedule the structured event log
// — fault injections, transport retries, the crash-window eviction and
// the re-adoption after it — renders byte-identical NDJSON every run,
// pinned by its own golden. Regenerate with GEN_GOLDEN=1 after an
// intentional behavior change.
func TestDeterminismEventLogGolden(t *testing.T) {
	cfg := Config{Seed: 7, ClientLoad: 5, Managed: true, Faults: faultsGoldenPlan()}
	sys, a := eventLogRun(t, cfg, 1, 30*time.Second, 2*time.Minute)
	_, b := eventLogRun(t, cfg, 1, 30*time.Second, 2*time.Minute)
	if a != b {
		t.Fatalf("same seed produced different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	golden := "testdata/determinism_eventlog.golden"
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(a), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if a != string(want) {
		t.Errorf("event log differs from %s (same seed, code change altered logged decisions); rerun with GEN_GOLDEN=1 if intended", golden)
	}

	// The golden run must actually exercise the interesting paths: fault
	// injections recorded with their rule names, and the crash window's
	// eviction visible as a control-plane decision.
	if !strings.Contains(a, `"component":"faults"`) {
		t.Error("no fault-injection records in the golden run")
	}
	if !strings.Contains(a, `"chaos-drop"`) {
		t.Error("fault records do not carry rule provenance")
	}
	if !strings.Contains(a, "evicted") && !strings.Contains(a, "readopted") {
		t.Error("crash window left no eviction or re-adoption record")
	}

	// Trace correlation: at least one record's trace ID must resolve to a
	// violation trace the tracer holds — the link that turns a log line
	// into a causal tree.
	ids := make(map[string]bool)
	for _, tr := range sys.Tracer.Traces() {
		ids[tr.ID] = true
	}
	correlated := 0
	for _, rec := range sys.Log.Records(eventlog.Query{}) {
		if rec.Trace != "" {
			if !ids[rec.Trace] {
				t.Fatalf("record %d carries trace %q not present in the tracer", rec.Seq, rec.Trace)
			}
			correlated++
		}
	}
	if correlated == 0 {
		t.Error("no record carries a trace context")
	}
}

// TestEventLogSamplingBoundsVolume: with 1-in-4 sampling armed, sub-Warn
// chatter is rate-sampled (seeded, so still deterministic) while every
// Warn+ record survives — the ring cannot be washed by a chatty code.
func TestEventLogSamplingBoundsVolume(t *testing.T) {
	cfg := Config{Seed: 7, ClientLoad: 5, Managed: true, Faults: faultsGoldenPlan()}
	_, full := eventLogRun(t, cfg, 1, 30*time.Second, 2*time.Minute)
	sysA, a := eventLogRun(t, cfg, 4, 30*time.Second, 2*time.Minute)
	_, b := eventLogRun(t, cfg, 4, 30*time.Second, 2*time.Minute)
	if a != b {
		t.Fatal("seeded sampling is not deterministic across runs")
	}
	if sysA.Log.SampledOut() == 0 {
		t.Error("1-in-4 sampling sampled nothing out")
	}
	countWarnPlus := func(s string) int {
		return strings.Count(s, `"level":"warn"`) + strings.Count(s, `"level":"error"`)
	}
	if got, want := countWarnPlus(a), countWarnPlus(full); got != want {
		t.Errorf("sampling dropped Warn+ records: %d with sampling, %d without", got, want)
	}
}
