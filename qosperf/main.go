// Command qosperf is the repository's benchmark. It drives the shipped
// control plane from outside — the live stack over loopback TCP and the
// fleet simulator — on one named workload, checks that the outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash qosperf/run.sh --workload live-episodes --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a run traced at every layer boundary, and
// writes its spans to .bench_out/<workload>.spans.ndjson.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"softqos/internal/agent"
	"softqos/internal/scenario"
)

// Offered loads. They size the workloads for --seconds 30 on two cores;
// the fleet duration is virtual time.
const (
	episodeRate  = 1000 // violations per second on the steady processes
	steadyCount  = 2    // long-lived processes of a live stack
	liveSetups   = 15   // live set-ups timed per run (setup_s is their median)
	fleetSetups  = 5    // fleet set-ups timed per run
	fleetHosts   = 10000
	fleetVirtual = 12 // virtual seconds simulated per --seconds
)

// churn is the live-churn load. The agent re-delivers every push to
// every process it ever registered, so its work per push grows through
// the run; these rates keep it well below saturation at the end of a
// 30-second run while the run still yields 1000 registrations and 100
// pushes: ten samples beyond p99 and p90.
var churn = churnConfig{rate: 43, pushEvery: 232 * time.Millisecond, viewers: 0.5}

// workloads maps each workload to its run function.
var workloads = map[string]func(*bench) error{
	"live-episodes": (*bench).liveEpisodes,
	"live-churn":    (*bench).liveChurn,
	"fleet-sim":     (*bench).fleetSim,
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rng      *rand.Rand

	e2e       map[string]metric
	layer     map[string]metric
	notes     map[string]any
	problems  []string
	attempted int
	failed    int

	tr      *tracer
	genLate []float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: live-episodes, live-churn or fleet-sim")
	seed := flag.Int64("seed", 1, "workload seed: arrival times, identity mix, push times and the fleet")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qosperf: usage: --workload %s --seed N --seconds N --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		rng: rand.New(rand.NewSource(*seed)),
		e2e: map[string]metric{}, layer: map[string]metric{}, notes: map[string]any{},
	}
	if b.trace {
		b.tr = newTracer()
	}
	steal0, total0 := stealTicks()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "qosperf: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		// CPU time the hypervisor gave other guests while this run waited:
		// latencies measured under heavy steal are not comparable.
		b.notes["steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qosperf: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// dur returns share of the run's measured seconds.
func (b *bench) dur(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// ---- Workloads -------------------------------------------------------

// Each workload runs one main phase for 0.9 of --seconds. A traced run
// first runs it untraced for 0.3, for the tracing overhead, then traced
// for 0.6.
const (
	mainShare     = 0.9
	untracedShare = 0.3
	tracedShare   = 0.6
)

// liveEpisodes: the paper's detect→locate→adapt loop at a fixed offered
// rate on two warm processes.
func (b *bench) liveEpisodes() error {
	run := func(s *liveStack, procs []*proc, d time.Duration, opBase int64) *episodeResult {
		ep := runEpisodes(s, procs, b.rng, episodeRate, d, opBase)
		return &ep
	}
	phase := b.dur(mainShare)
	if b.trace {
		s, procs, err := b.liveStack(nil)
		if err != nil {
			return err
		}
		_, cpu := b.measure(func() int { return run(s, procs, b.dur(untracedShare), 0).issued })
		s.close()
		b.notes["untraced_cpu_us_per_op"] = cpu
		phase = b.dur(tracedShare)
	}
	s, procs, err := b.liveStack(b.tr)
	if err != nil {
		return err
	}
	defer s.close()
	var ep *episodeResult
	spans0 := b.spanMark()
	cpu := b.mainPhase(s, func() int {
		ep = run(s, procs, phase, 1<<40)
		return ep.issued
	})
	b.setE2E("cpu_us_per_op", "us", cpu)
	b.heap()
	b.account(ep.issued, ep.failed, ep.problems)
	b.genLate = append(b.genLate, ep.genLate...)
	b.percentiles("episode", &ep.latency, 0.5, 0.99)
	if b.trace {
		b.overhead(cpu)
		b.residual(spans0)
		b.ruleMetrics(s)
	}
	return nil
}

// liveChurn: short-lived processes register, violate once and exit while
// policy pushes roll out.
func (b *bench) liveChurn() error {
	phase := b.dur(mainShare)
	if b.trace {
		s, procs, err := b.liveStack(nil)
		if err != nil {
			return err
		}
		_, cpu := b.measure(func() int {
			r, _ := runChurn(s, procs, b.rng, churn, b.dur(untracedShare), 0, 0)
			return r.lifecycles
		})
		s.close()
		b.notes["untraced_cpu_us_per_op"] = cpu
		phase = b.dur(tracedShare)
	}
	s, procs, err := b.liveStack(b.tr)
	if err != nil {
		return err
	}
	defer s.close()

	var r churnResult
	var cs0 agent.CacheStats
	if b.trace {
		cs0 = s.cacheStats()
	}
	spans0 := b.spanMark()
	cpu := b.mainPhase(s, func() int {
		r, _ = runChurn(s, procs, b.rng, churn, phase, 1<<40, 0)
		return r.lifecycles
	})
	b.setE2E("cpu_us_per_op", "us", cpu)
	b.heap()
	b.account(r.lifecycles+r.pushes, r.failed, r.problems)
	b.genLate = append(b.genLate, r.genLate...)
	b.percentiles("episode", &r.episode, 0.5, 0.99)
	b.percentiles("register", &r.register, 0.5, 0.99)
	b.percentiles("policy_converge", &r.converge, 0.5, 0.9)
	b.notes["pushes"] = r.pushes
	b.notes["lifecycles"] = r.lifecycles
	if b.trace {
		b.overhead(cpu)
		b.residual(spans0)
		b.ruleMetrics(s)
		cs := s.cacheStats()
		regs := cs.Hits + cs.Misses - cs0.Hits - cs0.Misses
		b.setLayer("agent.cache_hit_ratio", "ratio", ratio(float64(cs.Hits-cs0.Hits), float64(regs)))
		b.setLayer("agent.roster_size", "count", float64(s.registrants.Load()))
		b.setLayer("agent.redelivery_live_ratio", "ratio",
			ratio(float64(s.redeliveredLive.Load()), float64(s.redeliveries.Load())))
		b.setLayer("runtime.adjustments_per_op", "count", ratio(float64(r.adjustments), float64(r.lifecycles)))
	}
	return nil
}

// fleetSim: the 10k-host three-tier fleet simulator.
func (b *bench) fleetSim() error {
	cfg := fleetConfig(b.seed, fleetHosts)
	virtual := time.Duration(fleetVirtual * mainShare * b.seconds * float64(time.Second))
	var sys *scenario.FleetSystem
	if !b.trace {
		sys = b.fleetSetups(cfg, fleetSetups)
	} else {
		f, _ := buildFleet(cfg)
		_, cpu := b.measure(func() int {
			return int(runFleet(f, time.Duration(float64(virtual)*untracedShare/mainShare), false).hostSeconds())
		})
		b.notes["untraced_cpu_us_per_op"] = cpu
		sys, _ = buildFleet(cfg)
		virtual = time.Duration(float64(virtual) * tracedShare / mainShare)
	}
	var r fleetRun
	cpu := b.mainPhase(nil, func() int {
		r = runFleet(sys, virtual, b.trace)
		return int(r.hostSeconds())
	})
	b.setE2E("cpu_us_per_op", "us", cpu)
	b.heap()
	goruntime.KeepAlive(sys)
	b.fleetResult(r)
	if b.trace {
		b.overhead(cpu)
	}
	return nil
}

// ---- Phases -----------------------------------------------------------

// liveStack sets up a live stack with its steady processes. An untraced
// run sets up liveSetups times and reports the median as setup_s.
func (b *bench) liveStack(tr *tracer) (*liveStack, []*proc, error) {
	n := 1
	if _, done := b.e2e["setup_s"]; !done && !b.trace {
		n = liveSetups
	}
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := newLiveStack(tr)
		if err != nil {
			return nil, nil, err
		}
		procs, err := steadyProcs(s, steadyCount)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			if n > 1 {
				b.setE2E("setup_s", "s", median(times))
				b.notes["setup_s_samples"] = times
			}
			return s, procs, nil
		}
		s.close()
	}
}

// fleetSetups builds the fleet n times, reports the median set-up time,
// checks that every build of the seed ran its prefix identically, and
// returns the last build.
func (b *bench) fleetSetups(cfg scenario.FleetConfig, n int) *scenario.FleetSystem {
	var times []float64
	var first fleetFingerprint
	var sys *scenario.FleetSystem
	for i := 0; i < n; i++ {
		sys = nil
		goruntime.GC()
		var setup time.Duration
		sys, setup = buildFleet(cfg)
		times = append(times, setup.Seconds())
		fp := fingerprint(sys)
		if i == 0 {
			first = fp
		} else if fp != first {
			b.problem("fleet seed %d: build %d ran its prefix as %+v, build 1 as %+v", cfg.Seed, i+1, fp, first)
		}
	}
	b.setE2E("setup_s", "s", median(times))
	b.notes["setup_s_samples"] = times
	return sys
}

// fleetResult records a fleet run's metrics and checks.
func (b *bench) fleetResult(r fleetRun) {
	hs := r.hostSeconds()
	b.account(int(hs), 0, r.problems)
	b.setLayer("fleet_host_s_per_s", "host-s/s", hs/r.wall.Seconds())
	// Exact counts of the deterministic simulation, to compare across
	// runs of one seed.
	b.notes["fleet_events"] = r.res.Events
	b.notes["fleet_bus_bytes"] = r.res.BusBytes
	b.notes["fleet_virtual_s"] = r.virtual.Seconds() + fleetPrefix.Seconds()
	b.notes["fleet_detect_adapt_p99_ms"] = float64(r.res.DetectAdaptP99) / 1e6
	if b.trace {
		b.setLayer("msg.bus_msgs_per_host_s", "count/host-s", float64(r.res.BusMessages)/hs)
		b.setLayer("msg.bus_bytes_per_host_s", "bytes/host-s", float64(r.res.BusBytes)/hs)
		b.setLayer("sim.events_per_host_s", "count/host-s", float64(r.res.Events)/hs)
		b.setLayer("manager.region_handle_us.p50", "us", quantile(r.regionUS, 0.5))
		b.setLayer("manager.region_handle_us.p99", "us", quantile(r.regionUS, 0.99))
		b.setLayer("manager.fanout_per_probe", "count", ratio(float64(r.res.FanoutQueries), float64(r.res.Probes)))
		b.setLayer("manager.alarms_per_batch", "count", ratio(float64(r.res.BatchedAlarms), float64(r.res.Batches)))
		windows := float64(r.res.SimTime) / float64(r.sys.Cfg.TelemetryWindow)
		b.setLayer("telemetry.summaries_per_window", "count", ratio(float64(r.res.Summaries), windows))
	}
}

// ---- Measurement ------------------------------------------------------

// measure runs fn, which returns the operations it completed, and
// returns them with the process CPU time (user+sys) per operation in µs.
func (b *bench) measure(fn func() int) (int, float64) {
	c0 := cpuTime()
	ops := fn()
	return ops, ratio(float64(cpuTime()-c0)/1e3, float64(ops))
}

// mainPhase measures the workload's main phase: CPU per operation, and
// in a traced run its allocation, GC and CPU-profile metrics and the
// message counters of s (nil for the fleet).
func (b *bench) mainPhase(s *liveStack, fn func() int) float64 {
	if !b.trace {
		_, cpu := b.measure(fn)
		return cpu
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	gc0, tot0 := gcCPU()
	var c0 map[string]uint64
	if s != nil {
		c0 = s.netCounters()
	}
	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	ops, cpu := b.measure(fn)
	if profErr == nil {
		pprof.StopCPUProfile()
	}
	goruntime.ReadMemStats(&ms1)
	gc1, tot1 := gcCPU()
	b.setLayer("go.allocs_per_op", "count", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ops)))
	b.setLayer("go.bytes_alloc_per_op", "bytes", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(ops)))
	b.setLayer("go.gc_cpu_frac", "frac", ratio(gc1-gc0, tot1-tot0))
	if profErr != nil {
		b.problem("cpu profile: %v", profErr)
	} else if shares, _, err := cpuShares(prof.Bytes()); err != nil {
		b.problem("cpu profile: %v", err)
	} else {
		for _, k := range cpuShareBuckets {
			b.setLayer("cpu_share."+k, "frac", shares[k])
		}
	}
	if s != nil {
		c1 := s.netCounters()
		d := func(k string) float64 { return float64(c1[k] - c0[k]) }
		b.setLayer("msg.bytes_per_op", "bytes", ratio(d("msg.net.bytes"), float64(ops)))
		b.setLayer("msg.frames_per_op", "count", ratio(d("msg.net.sent"), float64(ops)))
		b.setLayer("msg.send_failed", "count", d("msg.net.send_failed"))
		b.setLayer("msg.retries", "count", d("msg.net.retries"))
	}
	return cpu
}

// netCounters reads the stack's transport counters.
func (s *liveStack) netCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, k := range []string{"msg.net.bytes", "msg.net.sent", "msg.net.send_failed", "msg.net.retries"} {
		out[k] = s.counter(k)
	}
	return out
}

// heap records the heap in use after a forced GC.
func (b *bench) heap() {
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, the second frees them.
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	b.setE2E("heap_live_mb", "MB", float64(ms.HeapAlloc)/1e6)
}

// overhead records the traced main phase's CPU per operation against
// the untraced one measured first in the same run.
func (b *bench) overhead(tracedCPU float64) {
	if u, ok := b.notes["untraced_cpu_us_per_op"].(float64); ok && u > 0 {
		b.setLayer("bench.trace_overhead_frac", "frac", tracedCPU/u-1)
	}
}

// percentiles records a timing's percentiles as <name>_p<q>_ms.
func (b *bench) percentiles(name string, s *sampleSet, qs ...float64) {
	for _, q := range qs {
		v := s.quantile(q)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// Failures dominate this percentile; JSON has no infinity, so
			// report the timeout every failure exceeded.
			v = float64(adaptTimeout) / 1e6
		}
		b.setLayer(fmt.Sprintf("%s_p%d_ms", name, int(q*100)), "ms", v)
		if !supports(s.n(), q*100) {
			b.notes[fmt.Sprintf("%s_p%d_unsupported", name, int(q*100))] =
				fmt.Sprintf("%d samples: fewer than 10 beyond; highest supported percentile %v", s.n(), highestPercentile(s.n()))
		}
	}
	b.notes[name+"_samples"] = s.n()
}

func (b *bench) account(attempted, failed int, problems []string) {
	b.attempted += attempted
	b.failed += failed
	b.problems = append(b.problems, problems...)
}

// spanMark returns the number of spans recorded so far.
func (b *bench) spanMark() int {
	if b.tr == nil {
		return 0
	}
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	return len(b.tr.spans)
}

// ruleMetrics reads the host manager's inference histograms.
func (b *bench) ruleMetrics(s *liveStack) {
	inf := s.reg.Histogram("manager.live.inference_ns", 0)
	p50, _ := inf.Quantile(0.5)
	p99, _ := inf.Quantile(0.99)
	b.setLayer("rules.inference_us.p50", "us", p50/1e3)
	b.setLayer("rules.inference_us.p99", "us", p99/1e3)
	fir := s.reg.Histogram("manager.live.rule_firings", 0)
	b.setLayer("rules.firings_per_episode", "count", ratio(fir.Sum(), float64(fir.Count())))
}

// residual reports how much of the median episode the blocking path's
// median self times leave unexplained, over the episodes recorded since
// mark: (episode p50 − Σ per-layer median self time) / episode p50.
func (b *bench) residual(mark int) {
	spans := b.tr.snapshot()[mark:]
	byOp := map[int64][]span{}
	for _, s := range spans {
		if s.Op != 0 && s.Name != "" {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	var roots []float64
	self := map[string][]float64{}
	for _, ss := range byOp {
		var root *span
		for i := range ss {
			if ss[i].Name == "bench.episode" {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		roots = append(roots, float64(root.dur()))
		// Clip the episode's spans to the episode: the host manager's
		// handler may run on after the adaptation ends it.
		var clipped []span
		for _, s := range ss {
			if s.ID == root.ID || s.Name == "bench.register" || s.Name == "bench.queue_wait" {
				continue
			}
			s.Start, s.End = max(s.Start, root.Start), min(s.End, root.End)
			if s.End > s.Start {
				clipped = append(clipped, s)
			}
		}
		st := selfTimes(clipped)
		for _, s := range clipped {
			self[s.Name] = append(self[s.Name], float64(st[s.ID]))
		}
	}
	if len(roots) == 0 {
		return
	}
	med := median(roots)
	sum := 0.0
	for _, v := range self {
		sum += median(v)
	}
	b.setLayer("bench.blocking_residual_frac", "frac", (med-sum)/med)
}

// spanMetrics derives the per-layer timings from every span of the run.
func (b *bench) spanMetrics() {
	spans := b.tr.snapshot()
	st := summarizeSpans(spans)
	q := func(name string, v []float64, qs ...float64) {
		for _, x := range qs {
			val := 0.0
			if len(v) > 0 {
				val = quantile(v, x)
			}
			b.setLayer(fmt.Sprintf("%s.p%d", name, int(x*100)), "us", val)
		}
	}
	q("instrument.notify_us", st.self["instrument.notify"], 0.5, 0.99)
	q("instrument.actuate_us", st.self["instrument.actuate"], 0.5)
	q("instrument.install_us", st.self["instrument.install"], 0.5, 0.99)
	q("msg.send_us", st.dur["msg.send"], 0.5, 0.99)
	q("msg.transit_us", st.dur["msg.transit"], 0.5, 0.99)
	q("msg.dial_us", st.dur["msg.dial"], 0.5, 0.99)
	q("manager.handle_us", st.dur["manager.handle"], 0.5, 0.99)
	q("agent.handle_us", st.dur["agent.handle"], 0.5, 0.99)
	q("repository.search_us", st.dur["repository.search"], 0.5, 0.99)
	q("repository.push_us", st.dur["repository.push"], 0.5)

	// Repository searches made while the agent handled a registration.
	handles := map[int32]bool{}
	for _, s := range spans {
		if s.Name == "agent.handle" {
			handles[s.ID] = true
		}
	}
	searches := 0
	for _, s := range spans {
		if s.Name == "repository.search" && handles[s.Parent] {
			searches++
		}
	}
	b.setLayer("repository.searches_per_register", "count", ratio(float64(searches), float64(len(handles))))
}

// ---- Output -----------------------------------------------------------

// perLayerNames lists every per-layer metric a traced run reports; one a
// workload's phases do not exercise reads 0.
var perLayerNames = []struct{ name, unit string }{
	// The user-visible timings and throughput: too noisy on a shared
	// two-core machine to gate a change (see README.md), so reported
	// here, per workload, without a bound.
	{"episode_p50_ms", "ms"}, {"episode_p99_ms", "ms"},
	{"register_p50_ms", "ms"}, {"register_p99_ms", "ms"},
	{"policy_converge_p50_ms", "ms"}, {"policy_converge_p90_ms", "ms"},
	{"fleet_host_s_per_s", "host-s/s"},
	{"instrument.notify_us.p50", "us"}, {"instrument.notify_us.p99", "us"},
	{"instrument.actuate_us.p50", "us"},
	{"instrument.install_us.p50", "us"}, {"instrument.install_us.p99", "us"},
	{"msg.send_us.p50", "us"}, {"msg.send_us.p99", "us"},
	{"msg.transit_us.p50", "us"}, {"msg.transit_us.p99", "us"},
	{"msg.bytes_per_op", "bytes"}, {"msg.frames_per_op", "count"},
	{"msg.send_failed", "count"}, {"msg.retries", "count"},
	{"msg.dial_us.p50", "us"}, {"msg.dial_us.p99", "us"},
	{"msg.bus_msgs_per_host_s", "count/host-s"}, {"msg.bus_bytes_per_host_s", "bytes/host-s"},
	{"rules.inference_us.p50", "us"}, {"rules.inference_us.p99", "us"},
	{"rules.firings_per_episode", "count"},
	{"manager.handle_us.p50", "us"}, {"manager.handle_us.p99", "us"},
	{"manager.region_handle_us.p50", "us"}, {"manager.region_handle_us.p99", "us"},
	{"manager.fanout_per_probe", "count"}, {"manager.alarms_per_batch", "count"},
	{"runtime.adjustments_per_op", "count"},
	{"agent.handle_us.p50", "us"}, {"agent.handle_us.p99", "us"},
	{"agent.cache_hit_ratio", "ratio"}, {"agent.roster_size", "count"},
	{"agent.redelivery_live_ratio", "ratio"},
	{"repository.search_us.p50", "us"}, {"repository.search_us.p99", "us"},
	{"repository.searches_per_register", "count"}, {"repository.push_us.p50", "us"},
	{"sim.events_per_host_s", "count/host-s"},
	{"telemetry.summaries_per_window", "count"},
	{"go.allocs_per_op", "count"}, {"go.bytes_alloc_per_op", "bytes"}, {"go.gc_cpu_frac", "frac"},
	{"bench.gen_late_us.p50", "us"}, {"bench.gen_late_us.p99", "us"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.blocking_residual_frac", "frac"},
}

// endToEndNames lists every end-to-end metric an untraced run reports.
var endToEndNames = []string{"setup_s", "cpu_us_per_op", "heap_live_mb"}

// report prints the run's stamp line, then the result line.
func (b *bench) report(w *os.File) error {
	late := map[string]float64{} // the fleet runs on virtual time: no generator
	if len(b.genLate) > 0 {
		late["p50"], late["p99"] = quantile(b.genLate, 0.5), quantile(b.genLate, 0.99)
	}
	var metricsOut map[string]metric
	if b.trace {
		b.spanMetrics()
		b.setLayer("bench.gen_late_us.p50", "us", late["p50"])
		b.setLayer("bench.gen_late_us.p99", "us", late["p99"])
		metricsOut = map[string]metric{}
		for _, m := range perLayerNames {
			v, ok := b.layer[m.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				v = metric{0, m.unit}
			}
			metricsOut[m.name] = v
		}
		for _, k := range cpuShareBuckets {
			metricsOut["cpu_share."+k] = b.layer["cpu_share."+k]
		}
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return err
		}
		path := filepath.Join(".bench_out", b.workload+".spans.ndjson")
		if err := b.tr.write(path); err != nil {
			return err
		}
		b.notes["spans"] = path
	} else {
		metricsOut = map[string]metric{}
		for _, n := range endToEndNames {
			v, ok := b.e2e[n]
			if !ok {
				return fmt.Errorf("metric %s not measured", n)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				return fmt.Errorf("metric %s = %v", n, v.Value)
			}
			metricsOut[n] = v
		}
	}
	stamp := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": b.trace,
		"env":         envStamp(),
		"gen_late_us": late,
		"problems":    b.problems,
		"notes":       b.notes,
	}
	if !b.trace {
		// The unbounded timings, measured untraced.
		stamp["measured"] = b.layer
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"qosperf": stamp}); err != nil {
		return err
	}
	if b.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return enc.Encode(map[string]any{
		"correct":   len(b.problems) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metricsOut,
	})
}

// envStamp identifies the machine a result was measured on.
func envStamp() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
		"go": goruntime.Version(), "cpu_model": model,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zero where it is unavailable).
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gcCPU returns the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
