package softqos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"softqos/internal/agent"
	"softqos/internal/faults"
	"softqos/internal/instrument"
	"softqos/internal/msg"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// EventLogger is the bounded, trace-correlated structured event log
// (re-exported from the telemetry layer). A nil *EventLogger is valid
// everywhere one is accepted: every record site degrades to a no-op.
type EventLogger = eventlog.Logger

// NewEventLogger creates an event log on the given clock (nil for a
// zero clock) holding up to capacity records (<= 0 for the default).
func NewEventLogger(clock telemetry.Clock, capacity int) *EventLogger {
	return eventlog.New(clock, capacity)
}

// FaultPlan is a fault-injection schedule for chaos-testing a live
// deployment (see docs/FAULTS.md for the JSON format). Apply one with
// NewLiveCoordinatorFaults or qosd's -faults flag.
type FaultPlan = faults.Plan

// Live mode runs the same management stack as the simulator — the
// coordinator, policy agent, host and domain managers of internal/* —
// under the wall clock with the TCP management transport
// (msg.NetTransport). This is the configuration in which the paper
// measured its overheads (≈400 µs to initialise and register an
// instrumented process, ≈11 µs per instrumentation pass when QoS is
// met). Nothing management-specific is reimplemented here: each Live*
// type is thin wiring of an internal component onto a transport node.

// Management addresses of the live deployment's singleton components.
const (
	LiveAgentAddr         = "/live/PolicyAgent"
	LiveHostManagerAddr   = "/live/QoSHostManager"
	LiveDomainManagerAddr = "/live/QoSDomainManager"
)

// Violation is a policy-violation report (re-exported from the
// management protocol).
type Violation = msg.Violation

// LiveAgent serves policy registrations over TCP: the same
// agent.PolicyAgent the simulator wires onto the bus, bound to a
// NetTransport node. A failed repository lookup is answered with an
// explicit Nack (and counted), never a silently empty policy set.
type LiveAgent struct {
	nt *msg.NetTransport
	pa *agent.PolicyAgent
}

// ServeLiveAgent starts a policy agent answering Register messages on
// addr (use "127.0.0.1:0" for an ephemeral port).
func ServeLiveAgent(addr string, svc *repository.Service) (*LiveAgent, error) {
	nt, err := msg.NewNetTransport("live-agent", addr)
	if err != nil {
		return nil, err
	}
	pa := agent.New(LiveAgentAddr, svc, nt.Send)
	nt.Bind(LiveAgentAddr, "live-agent", pa.HandleMessage)
	return &LiveAgent{nt: nt, pa: pa}, nil
}

// Addr returns the agent's listening address.
func (a *LiveAgent) Addr() string { return a.nt.Addr() }

// SetTelemetry attaches transport ("msg.net.*") and agent
// ("agent.registrations", "agent.failures") counters.
func (a *LiveAgent) SetTelemetry(reg *telemetry.Registry) {
	a.nt.SetMetrics(reg)
	a.nt.Sync(func() { a.pa.SetTelemetry(reg) })
}

// SetEventLog attaches the structured event log the agent's cache
// anomalies and the transport's drop/retry/reconnect diagnostics are
// recorded on. Nil detaches.
func (a *LiveAgent) SetEventLog(lg *EventLogger) {
	a.nt.SetEventLog(lg)
	a.nt.Sync(func() { a.pa.SetEventLog(lg) })
}

// Stats returns successful registrations and failed (Nacked) lookups.
func (a *LiveAgent) Stats() (registrations, failures uint64) {
	a.nt.Sync(func() { registrations, failures = a.pa.Registrations, a.pa.Failures })
	return
}

// CacheStats returns the agent's generation-cache counters (hits,
// misses, gap-triggered refreshes, stale deltas, deltas applied).
func (a *LiveAgent) CacheStats() (s agent.CacheStats) {
	a.nt.Sync(func() { s = a.pa.CacheStats() })
	return
}

// Generation returns the agent's cached policy generation for an
// executable (0 until the delta stream reaches it).
func (a *LiveAgent) Generation(exe string) (g uint64) {
	a.nt.Sync(func() { g = a.pa.Generation(exe) })
	return
}

// Close stops the agent.
func (a *LiveAgent) Close() error { return a.nt.Close() }

// LiveCollector is a minimal violation sink for live overhead
// experiments that only need to observe reports, not act on them (the
// full manager is LiveHostManager).
type LiveCollector struct {
	nt *msg.NetTransport

	violations atomic.Uint64
	overshoots atomic.Uint64

	mu   sync.Mutex
	last msg.Violation
}

// NewLiveCollector starts a violation collector on addr.
func NewLiveCollector(addr string) (*LiveCollector, error) {
	lc := &LiveCollector{}
	nt, err := msg.NewNetTransport("live-collector", addr)
	if err != nil {
		return nil, err
	}
	nt.Bind("/live/Collector", "live-collector", func(m msg.Message) {
		if v, ok := m.Body.(*msg.Violation); ok {
			if v.Overshoot {
				lc.overshoots.Add(1)
			} else {
				lc.violations.Add(1)
			}
			lc.mu.Lock()
			lc.last = *v
			lc.mu.Unlock()
		}
	})
	lc.nt = nt
	return lc, nil
}

// Addr returns the collector's listening address.
func (c *LiveCollector) Addr() string { return c.nt.Addr() }

// Violations returns the number of genuine violation reports received.
func (c *LiveCollector) Violations() uint64 { return c.violations.Load() }

// Overshoots returns the number of overshoot reports received.
func (c *LiveCollector) Overshoots() uint64 { return c.overshoots.Load() }

// Last returns the most recent violation received.
func (c *LiveCollector) Last() msg.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Close stops the collector.
func (c *LiveCollector) Close() error { return c.nt.Close() }

// LiveCoordinator is an instrument.Coordinator wired to the wall clock
// and a dial-only NetTransport node. Create it, add sensors, then call
// Register to fetch and install policies — the instrumented
// initialisation whose cost the paper reports. Inbound management
// messages (the policy set, actuate directives from managers) are
// dispatched on the transport's serial dispatcher; use Sync to drive
// sensors race-free from application goroutines when managers may be
// sending directives concurrently.
type LiveCoordinator struct {
	*instrument.Coordinator

	nt      *msg.NetTransport
	faults  *faults.Transport // nil unless built with a fault plan
	start   time.Time
	regDone chan error
}

// NewLiveCoordinator creates a live coordinator for the identified
// process. agentAddr and managerAddr are addresses of a LiveAgent and a
// LiveHostManager or LiveCollector — TCP "host:port" strings, or
// management addresses previously mapped with Route.
func NewLiveCoordinator(id Identity, agentAddr, managerAddr string) *LiveCoordinator {
	return newLiveCoordinator(id, agentAddr, managerAddr, nil)
}

// NewLiveCoordinatorFaults is NewLiveCoordinator with the coordinator's
// outbound management traffic routed through a fault-injection
// transport driven by plan. Sever rules cut the node's live TCP
// connections (exercising reconnect), crash windows surface as typed
// dial failures (exercising retry), and drop/delay/duplicate/reorder
// rules perturb the message stream. A nil plan injects nothing.
func NewLiveCoordinatorFaults(id Identity, agentAddr, managerAddr string, plan *FaultPlan) *LiveCoordinator {
	return newLiveCoordinator(id, agentAddr, managerAddr, plan)
}

func newLiveCoordinator(id Identity, agentAddr, managerAddr string, plan *FaultPlan) *LiveCoordinator {
	nt, err := msg.NewNetTransport(id.Host, "")
	if err != nil {
		// A dial-only node opens no listener; creation cannot fail.
		panic("softqos: " + err.Error())
	}
	lc := &LiveCoordinator{
		nt:      nt,
		start:   time.Now(),
		regDone: make(chan error, 1),
	}
	clock := instrument.Clock(func() time.Duration { return time.Since(lc.start) })
	send := msg.SendFunc(nt.Send)
	if plan != nil {
		ft := faults.New(nt, plan, telemetry.Clock(clock), nil)
		ft.OnSever = nt.SeverConns
		lc.faults = ft
		send = ft.Send
	}
	lc.Coordinator = instrument.NewCoordinator(id, clock, send, agentAddr, managerAddr)
	nt.Bind(lc.Coordinator.Address(), id.Host, lc.handle)
	return lc
}

// SetTelemetry attaches metrics and tracing to the coordinator, its
// transport node ("msg.net.*" counters) and, when fault injection is
// enabled, the fault transport — injected faults then register
// "faults.injected.*" counters and annotate open violation traces.
func (lc *LiveCoordinator) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	lc.Coordinator.SetTelemetry(reg, tracer)
	lc.nt.SetMetrics(reg)
	if lc.faults != nil {
		lc.faults.SetMetrics(reg)
		lc.faults.SetTracer(tracer)
	}
}

// SetEventLog attaches the structured event log the coordinator's
// transport (and fault injector, when one is armed) records on. Nil
// detaches.
func (lc *LiveCoordinator) SetEventLog(lg *EventLogger) {
	lc.nt.SetEventLog(lg)
	if lc.faults != nil {
		lc.faults.SetEventLog(lg)
	}
}

// FaultCounts returns per-kind injected fault counts; nil when the
// coordinator was built without a fault plan.
func (lc *LiveCoordinator) FaultCounts() map[string]uint64 {
	if lc.faults == nil {
		return nil
	}
	return lc.faults.Counts()
}

// ClearFaults disables fault injection for the rest of the process's
// lifetime and flushes any held (reordered) message.
func (lc *LiveCoordinator) ClearFaults() {
	if lc.faults != nil {
		lc.faults.Clear()
	}
}

// SetRetryPolicy overrides the transport's send retry/backoff schedule.
func (lc *LiveCoordinator) SetRetryPolicy(b msg.Backoff) { lc.nt.SetRetryPolicy(b) }

// Resilience reports the transport's self-healing counters: retried
// sends, re-established connections, and sends that failed after
// exhausting retries.
func (lc *LiveCoordinator) Resilience() (retries, reconnects, sendFailed uint64) {
	return lc.nt.Resilience()
}

// WallClock returns the coordinator's clock (for building sensors).
func (lc *LiveCoordinator) WallClock() Clock {
	return func() time.Duration { return time.Since(lc.start) }
}

// Route maps a management address to the TCP address of the node
// hosting it, so components can be addressed by name.
func (lc *LiveCoordinator) Route(mgmtAddr, tcpAddr string) { lc.nt.Route(mgmtAddr, tcpAddr) }

// Sync runs fn serialized with inbound message handling. Applications
// whose managers push directives concurrently drive their sensors
// (Tick/Set/Flush) inside Sync so the coordinator stays single-threaded.
func (lc *LiveCoordinator) Sync(fn func()) { lc.nt.Sync(fn) }

// handle processes inbound management messages on the dispatcher:
// registration replies complete Register, and actuate directives run
// through the coordinator's actuator registry.
func (lc *LiveCoordinator) handle(m msg.Message) {
	switch b := m.Body.(type) {
	case *msg.PolicySet, *msg.Nack:
		err := lc.Coordinator.HandleMessage(m)
		select {
		case lc.regDone <- err:
		default:
		}
	case *msg.Directive:
		if b.Action == "actuate" {
			_ = lc.Coordinator.HandleMessage(m)
		}
	}
}

// Register performs the instrumented process initialisation: it sends
// the registration to the policy agent and waits for the reply — a
// policy set, which is installed, or an explicit Nack, returned as an
// error. This round trip is the paper's ≈400 µs figure.
func (lc *LiveCoordinator) Register() error {
	if err := lc.Coordinator.Register(); err != nil {
		return err
	}
	select {
	case err := <-lc.regDone:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("softqos: timed out waiting for policy reply")
	}
}

// Close closes the coordinator's transport node.
func (lc *LiveCoordinator) Close() { _ = lc.nt.Close() }
