package main

import (
	"fmt"
	"time"

	"softqos/internal/msg"
	"softqos/internal/scenario"
)

// fleetConfig is the fleet simulator's configuration under test: the
// second `make fleet-smoke` line (10 processes per host, 100 hosts per
// domain, federated telemetry and the event log armed).
func fleetConfig(seed int64, hosts int) scenario.FleetConfig {
	return scenario.FleetConfig{Seed: seed, Hosts: hosts, ProcsPerHost: 10, Federate: true, EventLog: true}
}

// fleetPrefix is the virtual time every built fleet runs before the
// measured run, so that fleets built from one seed can be compared. It is
// one sample period (scenario.FleetConfig.SampleEvery).
const fleetPrefix = 5 * time.Second

// fleetRun is one measured fleet run.
type fleetRun struct {
	sys      *scenario.FleetSystem
	res      scenario.FleetResult
	wall     time.Duration // wall time of the measured Sim.RunFor
	virtual  time.Duration // virtual time it covered
	regionUS []float64     // region manager handler times, µs (traced runs)
	problems []string
}

// hostSeconds returns the simulated host-seconds of the measured run.
func (r fleetRun) hostSeconds() float64 {
	return float64(r.sys.HostCount()) * r.virtual.Seconds()
}

// buildFleet builds and starts a fleet, returning it and the wall time
// BuildFleet plus Start took, then runs the fixed prefix.
func buildFleet(cfg scenario.FleetConfig) (*scenario.FleetSystem, time.Duration) {
	t0 := time.Now()
	sys := scenario.BuildFleet(cfg)
	sys.Start()
	setup := time.Since(t0)
	sys.Sim.RunFor(fleetPrefix)
	return sys, setup
}

// fleetFingerprint is what must repeat exactly for one seed.
type fleetFingerprint struct{ events, busBytes uint64 }

func fingerprint(sys *scenario.FleetSystem) fleetFingerprint {
	r := sys.Result()
	return fleetFingerprint{events: r.Events, busBytes: r.BusBytes}
}

// runFleet simulates virtual of the built fleet and checks the run by
// the `qosfleet -check` criteria. With trace set, every region manager
// message is timed through a rebound region address.
func runFleet(sys *scenario.FleetSystem, virtual time.Duration, trace bool) fleetRun {
	// Hosts sample their load together at the start of each sample
	// period, and every alarm window flushes within it: a run ending on a
	// period boundary has every raised alarm accounted at the region.
	virtual = max(virtual.Truncate(sys.Cfg.SampleEvery), sys.Cfg.SampleEvery)
	r := fleetRun{sys: sys, virtual: virtual}
	if trace {
		sys.Bus.Bind(scenario.RegionAddr, "mgmt", func(m msg.Message) {
			start := time.Now()
			sys.Region.HandleMessage(m)
			r.regionUS = append(r.regionUS, float64(time.Since(start))/1e3)
		})
	}
	t0 := time.Now()
	sys.Sim.RunFor(virtual)
	r.wall = time.Since(t0)
	r.res = sys.Result()
	r.problems = checkFleet(sys, r.res)
	return r
}

// checkFleet applies the `qosfleet -check` criteria to a federated run.
func checkFleet(sys *scenario.FleetSystem, res scenario.FleetResult) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if got, want := sys.Region.Domains(), len(sys.Domains); got != want {
		fail("region sees %d domains, want %d", got, want)
	}
	if res.AlarmsRaised == 0 {
		fail("no load spikes over %v", res.SimTime)
	}
	if res.Adapted < res.AlarmsRaised*9/10 {
		fail("loop incomplete: %d of %d spikes adapted", res.Adapted, res.AlarmsRaised)
	}
	if res.DetectAdaptP99 <= 0 || res.DetectAdaptP99 > time.Second {
		fail("detect→adapt p99 = %v, want (0, 1s]", res.DetectAdaptP99)
	}
	if res.BatchedAlarms != res.AlarmsRaised {
		fail("region alarm accounting: %d batched vs %d raised", res.BatchedAlarms, res.AlarmsRaised)
	}
	if res.Summaries == 0 {
		fail("region ingested no telemetry summaries")
	}
	v, ok := sys.FederatedView()
	if !ok {
		fail("federated run has no fleet view")
		return bad
	}
	if v.Hosts != uint64(sys.HostCount()) {
		fail("fleet view covers %d hosts, want %d", v.Hosts, sys.HostCount())
	}
	// The per-domain breakdown must add up exactly to the fleet total.
	children := map[string]float64{}
	for _, c := range v.Children {
		for _, nv := range c.Summary.Counters {
			children[nv.Name] += nv.Value
		}
	}
	fleet := map[string]float64{}
	for _, nv := range v.Fleet.Counters {
		fleet[nv.Name] = nv.Value
		if children[nv.Name] != nv.Value {
			fail("federated %s: domains sum to %v, fleet total %v", nv.Name, children[nv.Name], nv.Value)
		}
	}
	// Sketch merges are exact in count: the federated load sketch holds
	// one observation per federated sample.
	for _, h := range v.Fleet.Histograms {
		if h.Name == "fleet.load" && float64(h.Count) != fleet["fleet.samples"] {
			fail("federated fleet.load count %d != fleet.samples %v", h.Count, fleet["fleet.samples"])
		}
	}
	// Federated totals trail the local ones only by windows not yet
	// flushed; they can never exceed them.
	if fleet["fleet.alarms_raised"] == 0 || fleet["fleet.alarms_raised"] > float64(res.AlarmsRaised) {
		fail("federated alarms %v vs %d raised locally", fleet["fleet.alarms_raised"], res.AlarmsRaised)
	}
	if fleet["fleet.adaptations"] > float64(res.Adaptations) {
		fail("federated adaptations %v vs %d applied locally", fleet["fleet.adaptations"], res.Adaptations)
	}
	return bad
}
