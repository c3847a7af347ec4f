package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// observeCfg is the single-host golden scenario with the compliance
// subsystem armed.
func observeCfg() Config {
	return Config{Seed: 7, ClientLoad: 5, Managed: true, Observe: true}
}

// observeRun executes an observe-enabled run and renders its compliance
// report (Markdown) and the full flight-recorder dump (JSON).
func observeRun(t *testing.T, cfg Config) (report, timeline string) {
	t.Helper()
	sys := Build(cfg)
	sys.Run(30*time.Second, 2*time.Minute)

	var md bytes.Buffer
	if err := sys.Report("observe golden").WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	var tl bytes.Buffer
	if err := sys.Flight.Dump().WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	return md.String(), tl.String()
}

// TestObserveDeterminismGolden pins the observe-enabled run: two runs
// with the same seed must render byte-identical compliance reports and
// flight-recorder dumps, and the report must match its checked-in
// golden. Regenerate with GEN_GOLDEN=1 after an intentional change.
func TestObserveDeterminismGolden(t *testing.T) {
	rep1, tl1 := observeRun(t, observeCfg())
	rep2, tl2 := observeRun(t, observeCfg())
	if rep1 != rep2 {
		t.Fatalf("same seed produced different compliance reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", rep1, rep2)
	}
	if tl1 != tl2 {
		t.Fatal("same seed produced different flight-recorder dumps")
	}

	golden := "testdata/determinism_observe.golden"
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(rep1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != string(want) {
		t.Errorf("compliance report differs from %s (same seed, code change altered simulated behavior); rerun with GEN_GOLDEN=1 if intended", golden)
	}

	// The run under load actually exercises the subsystem: the policy
	// saw violations (compliance below 1), the loop miner consumed
	// completed episodes, and the recorder retained history.
	for _, wantStr := range []string{
		"# Soft-QoS compliance report", "NotifyQoSViolation",
		"## Control-loop stage latency", "## Flight recorder",
	} {
		if !strings.Contains(rep1, wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, rep1)
		}
	}
	if !strings.Contains(rep1, "frame_rate") {
		t.Error("report objective column missing the policy expression")
	}
	if strings.Contains(rep1, "| detect | 0 |") {
		t.Error("loop miner consumed no completed episodes")
	}
	if !strings.Contains(tl1, "loop.detect_ms") {
		t.Error("flight recorder did not retain the loop.* series")
	}
}

// TestObserveNeutrality proves arming Observe does not change what the
// system under test does: every single-host golden scenario re-run with
// the flight recorder, the loop miner and the event log armed renders a
// telemetry snapshot equal to its checked-in golden (recorded
// unobserved) once the miner's own loop.* histogram lines are dropped.
// Sampling is read-only against the registry, the miner only populates
// its own metrics, and the log's self-accounting counters register
// lazily.
func TestObserveNeutrality(t *testing.T) {
	type neutralCase struct {
		name string // the golden is testdata/determinism_<name>.golden
		cfg  Config
	}
	var cases []neutralCase
	for _, gc := range goldenCases {
		cases = append(cases, neutralCase{gc.name, gc.cfg})
	}
	cases = append(cases,
		neutralCase{"faults", Config{Seed: 7, ClientLoad: 5, Managed: true, Faults: faultsGoldenPlan()}},
		neutralCase{"policychurn", churnCfg(11)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Observe = true
			var got string
			if cfg.PolicyChurn != nil {
				got, _ = snapshotChurnRun(t, cfg, 30*time.Second, 3*time.Minute)
			} else {
				got, _ = snapshotRun(t, cfg, 30*time.Second, 2*time.Minute)
			}
			want, err := os.ReadFile("testdata/determinism_" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, ln := range strings.Split(got, "\n") {
				if !strings.HasPrefix(ln, "loop.") {
					kept = append(kept, ln)
				}
			}
			if strings.Join(kept, "\n") != string(want) {
				t.Errorf("Observe perturbed the simulation: snapshot (minus loop.* lines) differs from the %s golden", tc.name)
			}
		})
	}
}
