// Command qosd runs one managed-system scenario end to end and reports
// the QoS timeline and summary — the quickest way to watch the framework
// enforce a policy.
//
// Usage:
//
//	qosd [-scenario videostream|single|server-fault|network-fault|multiapp|webapp]
//	     [-load 5] [-managed] [-duration 2m] [-seed 1] [-timeline] [-metrics]
//
// -metrics appends the full telemetry snapshot (counters, gauges,
// histograms) and the per-violation causal trace table to the report.
// -export DIR dumps the same state machine-readably: Prometheus text,
// the /debug/qos JSON payload, and Chrome trace-event JSON.
// -report DIR arms the compliance subsystem (flight recorder + SLO
// tracker) and writes an end-of-run compliance report: compliance.md,
// compliance.json and timeline.json.
//
// qosd -live runs the same manager stack over TCP under the wall clock
// instead of simulating; see live.go for the roles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"softqos/internal/faults"
	"softqos/internal/scenario"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
	"softqos/internal/telemetry/export"
	"softqos/internal/video"
)

var (
	scen     = flag.String("scenario", "videostream", "videostream|single|server-fault|network-fault|multiapp|webapp")
	load     = flag.Float64("load", 5, "background CPU load on the client host (videostream scenario)")
	managed  = flag.Bool("managed", true, "enable the QoS management framework")
	duration = flag.Duration("duration", 2*time.Minute, "virtual measurement window")
	seed     = flag.Int64("seed", 1, "simulation seed")
	timeline = flag.Bool("timeline", false, "print one sample per second")
	trace    = flag.Bool("trace", false, "print the host manager's rule firing trace")
	metrics  = flag.Bool("metrics", false, "print the telemetry snapshot and violation trace table")
	exportTo = flag.String("export", "", "dump metrics.prom, qos.json and trace.json into this directory")
	reportTo = flag.String("report", "", "write the end-of-run compliance report (compliance.md/.json, timeline.json) into this directory")
	faultsIn = flag.String("faults", "", "JSON fault plan to inject into the management plane (see docs/FAULTS.md)")
)

// loadFaults reads the -faults plan, or returns nil when none was
// given. The same plan drives the sim Bus and the live TCP transport.
func loadFaults() *faults.Plan {
	if *faultsIn == "" {
		return nil
	}
	plan, err := faults.Load(*faultsIn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosd:", err)
		os.Exit(2)
	}
	return plan
}

func main() {
	flag.Parse()
	if *live {
		runLive()
		return
	}
	switch *scen {
	case "videostream", "single":
		run(scenario.Build(scenario.Config{
			Seed: *seed, ClientLoad: *load, Managed: *managed,
			Observe: *reportTo != "",
			Faults:  loadFaults()}), 30*time.Second)
	case "server-fault":
		run(scenario.Build(scenario.Config{
			Seed: *seed, Managed: *managed, ServerLoad: 4, Faults: loadFaults(),
			Observe: *reportTo != "",
			Stream: video.StreamConfig{ServerCost: 34 * time.Millisecond,
				DecodeCost: 10 * time.Millisecond}}), 30*time.Second)
	case "network-fault":
		sys := scenario.Build(scenario.Config{
			Seed: *seed, Managed: *managed, BackupRoute: true, Faults: loadFaults(),
			Observe: *reportTo != "",
			Stream:  video.StreamConfig{DecodeCost: 10 * time.Millisecond}})
		sys.Sim.RunFor(30 * time.Second)
		sys.CongestNetwork(6.0)
		run(sys, 0)
	case "multiapp":
		fmt.Print(scenario.MultiAppTable(*seed, 30*time.Second, *duration))
	case "webapp":
		r := scenario.WebScenario(*seed, *load, *managed, 30*time.Second, *duration)
		fmt.Printf("smoothed response time: %.1f ms (policy bound 50 ms)\n", r.MeanLatencyMs)
		fmt.Printf("requests served:        %d\n", r.Served)
		fmt.Printf("max backlog:            %d\n", r.P100BacklogMax)
		fmt.Printf("violations/adjustments: %d / %d (final boost %d)\n",
			r.Violations, r.Adjustments, r.FinalBoost)
	default:
		fmt.Fprintf(os.Stderr, "qosd: unknown scenario %q\n", *scen)
		os.Exit(2)
	}
}

func run(sys *scenario.System, warmup time.Duration) {
	if *trace {
		sys.ClientHM.Engine().SetTracing(true)
	}
	res := sys.Run(warmup, *duration)
	if *timeline {
		fmt.Printf("%-8s %-8s %-8s %-8s %-8s %-8s\n", "t", "fps", "jitter", "buffer", "boost", "load")
		for _, s := range res.Timeline {
			fmt.Printf("%-8s %-8.1f %-8.2f %-8d %-8d %-8.2f\n",
				s.At.Duration().Round(time.Second).String(), s.FPS, s.Jitter, s.Buffer, s.Boost, s.LoadAvg)
		}
		fmt.Println()
	}
	fmt.Printf("mean playback throughput: %.2f FPS (policy band 23..27)\n", res.MeanFPS)
	fmt.Printf("client host load average: %.2f\n", res.LoadAvg)
	fmt.Printf("in-band samples:          %.0f%%\n", 100*res.InBandFraction)
	fmt.Printf("violations / overshoots:  %d / %d (%d notifications)\n",
		res.Violations, res.Overshoots, res.Notifies)
	fmt.Printf("CPU adjustments:          %d (final boost %d)\n", res.CPUAdjustments, res.FinalBoost)
	fmt.Printf("escalations:              %d (server faults %d, network faults %d)\n",
		res.Escalations, res.ServerFaults, res.NetworkFaults)
	fmt.Printf("frames displayed/dropped: %d / %d\n", res.Displayed, res.Dropped)
	if sys.Rerouted > 0 {
		fmt.Printf("network reroutes:         %d\n", sys.Rerouted)
	}
	if sys.Faults != nil {
		fmt.Printf("faults injected:          %s\n", sys.Faults)
		fmt.Printf("agents evicted:           %d (heartbeats %d, episode timeouts %d)\n",
			sys.ClientHM.AgentsEvicted, sys.ClientHM.HeartbeatsSeen, sys.DM.EpisodeTimeouts)
	}
	if *trace {
		firings := sys.ClientHM.Engine().Trace()
		fmt.Printf("\nrule firings (%d total, last 20):\n", len(firings))
		start := 0
		if len(firings) > 20 {
			start = len(firings) - 20
		}
		for _, f := range firings[start:] {
			fmt.Println(" ", f)
		}
	}
	if *metrics {
		fmt.Println()
		if err := sys.Metrics.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "qosd:", err)
			os.Exit(1)
		}
		fmt.Println()
		if err := telemetry.WriteTraceTable(os.Stdout, sys.Tracer.Traces()); err != nil {
			fmt.Fprintln(os.Stderr, "qosd:", err)
			os.Exit(1)
		}
	}
	if *exportTo != "" {
		if err := export.DumpFiles(*exportTo, sys.Metrics, sys.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "qosd:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry exported to %s\n", *exportTo)
	}
	if *reportTo != "" {
		title := fmt.Sprintf("%s seed %d", *scen, *seed)
		if err := export.DumpReport(*reportTo, sys.Report(title)); err != nil {
			fmt.Fprintln(os.Stderr, "qosd:", err)
			os.Exit(1)
		}
		if sys.Log != nil {
			if err := dumpEventLog(*reportTo, sys.Log); err != nil {
				fmt.Fprintln(os.Stderr, "qosd:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("compliance report written to %s\n", *reportTo)
	}
}

// dumpEventLog writes the run's structured event log as events.ndjson
// next to the compliance report: one JSON record per line, oldest
// first, ready for jq/grep forensics.
func dumpEventLog(dir string, lg *eventlog.Logger) error {
	f, err := os.Create(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		return err
	}
	if err := lg.WriteNDJSON(f, eventlog.Query{}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
