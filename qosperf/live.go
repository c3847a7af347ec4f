package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softqos"
	"softqos/internal/agent"
	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/repository"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
)

const (
	appName   = "VideoApplication"
	exeName   = "mpeg_play"
	benchHost = "bench-host"

	// adaptTimeout bounds every awaited outcome: an episode not adapted,
	// a registration not answered or a push not installed within it
	// fails.
	adaptTimeout = time.Second
)

// policyText is the paper's Example 1 policy with its jitter bound
// raised by version millionths. Each push carries its own version, so a
// process's installed thresholds tell which push it runs, while the
// enforced band stays the same for every reading the benchmark produces.
func policyText(version int) string {
	return strings.Replace(softqos.Example1Policy, "jitter_rate < 1.25",
		"jitter_rate < "+strconv.FormatFloat(1.25+float64(version)*1e-6, 'f', 6, 64), 1)
}

// versionOf inverts policyText on an installed jitter threshold.
func versionOf(threshold float64) int {
	return int(math.Round((threshold - 1.25) * 1e6))
}

// node is a traced transport node's context: the operation and span its
// dispatcher is running, so spans started by the calls it makes name the
// right parent. name is the address peers send to.
type node struct {
	name string

	mu   sync.Mutex
	op   int64
	span int32
	sent bool // the node has sent at least once (its first send dials)
}

func (n *node) set(op int64, span int32) {
	n.mu.Lock()
	n.op, n.span = op, span
	n.mu.Unlock()
}

func (n *node) ctx() (int64, int32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.op, n.span
}

// firstSend reports whether this is the node's first send.
func (n *node) firstSend() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	first := !n.sent
	n.sent = true
	return first
}

// tracedSend wraps a node's Send with a msg.send span (msg.dial for the
// node's first send, which opens its connection) and pushes the link the
// receiving handler pops to record the transit span.
func (tr *tracer) tracedSend(n *node, send msg.SendFunc, onSend func(to string, err error)) msg.SendFunc {
	return func(to string, m msg.Message) error {
		op, parent := n.ctx()
		name := "msg.send"
		if n.firstSend() {
			name = "msg.dial"
		}
		id := tr.reserve()
		l := &link{op: op, parent: id}
		tr.pushLink(m.From, to, l)
		start := tr.now()
		err := send(to, m)
		end := tr.now()
		l.sentAt.Store(end)
		tr.finish(id, name, parent, op, start, end)
		if err != nil {
			tr.dropLink(m.From, to, l)
		}
		if onSend != nil {
			onSend(to, err)
		}
		return err
	}
}

// tracedHandler wraps a node's bound handler: it records the transit
// span of the message's hop (Send return to handler start: wire, read
// loop and dispatcher queue) and a span named by spanName around the
// handler.
func (tr *tracer) tracedHandler(n *node, spanName func(msg.Message) string, h func(msg.Message)) func(msg.Message) {
	return func(m msg.Message) {
		start := tr.now()
		var op int64
		var parent int32
		if l, ok := tr.popLink(m.From, n.name); ok {
			op, parent = l.op, l.parent
			// A handler that starts before its sender's Send returned
			// has no transit left to measure.
			sent := l.sentAt.Load()
			if sent == 0 || sent > start {
				sent = start
			}
			tr.record("msg.transit", l.parent, l.op, sent, start)
		}
		id := tr.reserve()
		n.set(op, id)
		h(m)
		n.set(0, 0)
		tr.finish(id, spanName(m), parent, op, start, tr.now())
	}
}

// timingStore is a repository.Store recording a repository.search span
// around every Search, parented under the calling node's current span.
type timingStore struct {
	repository.LocalStore
	tr *tracer
	n  *node

	searches atomic.Uint64
}

func (s *timingStore) Search(base repository.DN, scope repository.Scope, f repository.Filter) ([]*repository.Entry, error) {
	op, parent := s.n.ctx()
	start := s.tr.now()
	out, err := s.LocalStore.Search(base, scope, f)
	s.tr.record("repository.search", parent, op, start, s.tr.now())
	s.searches.Add(1)
	return out, err
}

// liveStack is the live control plane under test: a policy agent, a host
// manager running manager.OverloadHostRules and a policy server whose
// hub the agent watches, all on loopback TCP. Untraced, it is built from
// the softqos facade; traced, the benchmark wires the same internal
// components itself so that it is the caller at every boundary.
type liveStack struct {
	tr  *tracer
	reg *telemetry.Registry
	dir *repository.Directory

	agentAddr, hmAddr string

	// Facade (untraced).
	agent *softqos.LiveAgent
	hm    *softqos.LiveHostManager
	ps    *softqos.LivePolicyServer

	// Own wiring (traced).
	agentNT, hmNT, pushNT *msg.NetTransport
	pa                    *agent.PolicyAgent
	srv                   *repository.Server
	ctl                   *repository.Controller
	agentNode, pushNode   *node
	store                 *timingStore
	violations            atomic.Uint64

	// Re-deliveries the agent attempted while handling policy deltas, and
	// how many reached a live process.
	redeliveries, redeliveredLive atomic.Uint64
	registrants                   atomic.Uint64

	onAdjust atomic.Pointer[func(runtime.Adjustment)]
	nextPID  atomic.Int64

	closers []interface{ Close() error }
}

// newLiveStack starts the servers. tr is nil for an untraced stack.
func newLiveStack(tr *tracer) (*liveStack, error) {
	s := &liveStack{tr: tr}
	s.reg = telemetry.NewRegistry(func() time.Duration { return 0 })
	start := time.Now()
	s.reg.SetWallClock(func() time.Duration { return time.Since(start) })

	s.dir = softqos.NewDirectory()
	seedSvc := softqos.NewRepositoryService(s.dir)
	if err := seedSvc.DefineApplication(appName, exeName); err != nil {
		return nil, err
	}
	if err := seedSvc.DefineExecutable(exeName, map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
		return nil, err
	}
	if err := softqos.NewAdmin(seedSvc).AddPolicy(policyText(0), softqos.PolicyMeta{
		Application: appName, Executable: exeName}); err != nil {
		return nil, err
	}
	cfg := softqos.RolloutConfig{CanaryFraction: 1, Bake: time.Nanosecond}
	compliant := func() []telemetry.PolicyCompliance { return nil }

	var err error
	if tr == nil {
		err = s.startFacade(seedSvc, cfg, compliant)
	} else {
		err = s.startTraced(cfg, compliant)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *liveStack) startFacade(svc *softqos.RepositoryService, cfg softqos.RolloutConfig, compliant func() []telemetry.PolicyCompliance) error {
	var err error
	if s.agent, err = softqos.ServeLiveAgent("127.0.0.1:0", svc); err != nil {
		return err
	}
	s.started(s.agent)
	s.agent.SetTelemetry(s.reg)
	if s.hm, err = softqos.NewLiveHostManager("127.0.0.1:0", manager.OverloadHostRules); err != nil {
		return err
	}
	s.started(s.hm)
	s.hm.SetTelemetry(s.reg, nil)
	s.hm.SetOnAdjust(s.adjusted)
	if s.ps, err = softqos.ServeLivePolicy("127.0.0.1:0", s.dir, svc, cfg); err != nil {
		return err
	}
	s.started(s.ps)
	s.ps.SetTelemetry(s.reg)
	s.ps.Watch(s.agent.Addr())
	s.ps.SetHosts(benchHost)
	s.ps.Rollout().SetComplianceSource(compliant)
	s.agentAddr, s.hmAddr = s.agent.Addr(), s.hm.Addr()
	return nil
}

// startTraced wires what ServeLiveAgent, NewLiveHostManager and
// ServeLivePolicy wire, with the benchmark's spans at each boundary.
func (s *liveStack) startTraced(cfg softqos.RolloutConfig, compliant func() []telemetry.PolicyCompliance) error {
	tr := s.tr
	var err error

	// Policy agent, over a timing repository store.
	if s.agentNT, err = msg.NewNetTransport("live-agent", "127.0.0.1:0"); err != nil {
		return err
	}
	s.started(s.agentNT)
	s.agentAddr = s.agentNT.Addr()
	s.agentNode = &node{name: s.agentAddr}
	s.store = &timingStore{LocalStore: repository.LocalStore{Dir: s.dir}, tr: tr, n: s.agentNode}
	var inDelta atomic.Bool
	agentSend := tr.tracedSend(s.agentNode, s.agentNT.Send, func(_ string, err error) {
		if inDelta.Load() {
			s.redeliveries.Add(1)
			if err == nil {
				s.redeliveredLive.Add(1)
			}
		}
	})
	s.pa = agent.New(softqos.LiveAgentAddr, repository.NewService(s.store), agentSend)
	seen := map[string]bool{}
	agentHandle := func(m msg.Message) {
		switch m.Body.(type) {
		case *msg.Register:
			if !seen[m.From] {
				seen[m.From] = true
				s.registrants.Add(1)
			}
			s.pa.HandleMessage(m)
		case *msg.PolicyDelta:
			inDelta.Store(true)
			s.pa.HandleMessage(m)
			inDelta.Store(false)
		default:
			s.pa.HandleMessage(m)
		}
	}
	s.agentNT.Bind(softqos.LiveAgentAddr, "live-agent", tr.tracedHandler(s.agentNode, func(m msg.Message) string {
		if _, ok := m.Body.(*msg.PolicyDelta); ok {
			return "agent.delta"
		}
		return "agent.handle"
	}, agentHandle))
	s.agentNT.SetMetrics(s.reg)
	s.agentNT.Sync(func() { s.pa.SetTelemetry(s.reg) })

	// Host manager over a live host, as NewLiveHostManager wires it.
	if s.hmNT, err = msg.NewNetTransport("live", "127.0.0.1:0"); err != nil {
		return err
	}
	s.started(s.hmNT)
	s.hmAddr = s.hmNT.Addr()
	hmNode := &node{name: s.hmAddr}
	lhost := runtime.NewLiveHost("live")
	hm := manager.NewHostManager(softqos.LiveHostManagerAddr, lhost, tr.tracedSend(hmNode, s.hmNT.Send, nil), "")
	if err := hm.LoadRules(manager.OverloadHostRules); err != nil {
		return err
	}
	hm.OnUnknownProc = func(id msg.Identity) (runtime.ProcHandle, bool) {
		return lhost.StartProc(id.PID), true
	}
	lhost.SetOnAdjust(s.adjusted)
	s.hmNT.Bind(softqos.LiveHostManagerAddr, "live", tr.tracedHandler(hmNode,
		func(msg.Message) string { return "manager.handle" },
		func(m msg.Message) {
			if v, ok := m.Body.(*msg.Violation); ok && !v.Overshoot {
				s.violations.Add(1)
			}
			hm.HandleMessage(m)
		}))
	s.hmNT.SetMetrics(s.reg)
	s.hmNT.Sync(func() { hm.SetTelemetry(s.reg, nil) })

	// Policy server: directory server, hub and rollout controller.
	if s.pushNT, err = msg.NewNetTransport("live-repo", ""); err != nil {
		return err
	}
	s.started(s.pushNT)
	s.pushNode = &node{name: softqos.LivePolicyHubAddr}
	if s.srv, err = repository.ServeDirectory(s.dir, "127.0.0.1:0"); err != nil {
		return err
	}
	s.started(s.srv)
	hub := repository.NewHub(softqos.LivePolicyHubAddr, tr.tracedSend(s.pushNode, s.pushNT.Send, nil))
	s.ctl = repository.NewController(hub, repository.NewService(repository.LocalStore{Dir: s.dir}), cfg)
	s.srv.SetRollout(s.ctl)
	s.pushNT.SetMetrics(s.reg)
	hub.SetTelemetry(s.reg)
	s.ctl.SetTelemetry(s.reg)
	hub.Subscribe(s.agentAddr)
	s.ctl.SetHosts(func() []string { return []string{benchHost} })
	s.ctl.SetComplianceSource(compliant)
	return nil
}

func (s *liveStack) adjusted(a runtime.Adjustment) {
	if fn := s.onAdjust.Load(); fn != nil {
		(*fn)(a)
	}
}

// setOnAdjust installs the hook receiving every resource adjustment the
// host manager's rules apply.
func (s *liveStack) setOnAdjust(fn func(runtime.Adjustment)) { s.onAdjust.Store(&fn) }

func (s *liveStack) rollout() *repository.Controller {
	if s.ps != nil {
		return s.ps.Rollout()
	}
	return s.ctl
}

// push rolls policy version out through the rollout controller: a
// canary to the whole (one-host) roster, promoted fleet-wide as soon as
// its one-nanosecond bake ends. It first waits out the previous push's
// bake, which the controller requires.
func (s *liveStack) push(version int, op int64) error {
	ctl := s.rollout()
	deadline := time.Now().Add(adaptTimeout)
	for {
		st, ok := ctl.Status()
		if !ok || st.State != repository.RolloutBaking {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("push %d: previous rollout still baking", version)
		}
		time.Sleep(50 * time.Microsecond)
	}
	meta := softqos.PolicyMeta{Application: appName, Executable: exeName}
	if s.tr == nil {
		_, err := ctl.Push(policyText(version), meta)
		return err
	}
	id := s.tr.reserve()
	s.pushNode.set(op, id)
	start := s.tr.now()
	_, err := ctl.Push(policyText(version), meta)
	s.tr.finish(id, "repository.push", 0, op, start, s.tr.now())
	return err
}

// hostViolations returns the violation reports the host manager received.
func (s *liveStack) hostViolations() uint64 {
	if s.hm != nil {
		return s.hm.Violations()
	}
	return s.violations.Load()
}

// cacheStats returns the traced agent's generation-cache counters.
func (s *liveStack) cacheStats() (st agent.CacheStats) {
	s.agentNT.Sync(func() { st = s.pa.CacheStats() })
	return st
}

// counter reads a telemetry counter shared by every node of the stack
// and its processes.
func (s *liveStack) counter(name string) uint64 { return s.reg.Counter(name).Value() }

// close stops every server the stack started, newest first.
func (s *liveStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		_ = s.closers[i].Close()
	}
	s.closers = nil
}

// started records a server for close.
func (s *liveStack) started(c interface{ Close() error }) { s.closers = append(s.closers, c) }

// proc is one simulated instrumented process: the Example 1 sensors, a
// frame_skip actuator, and a coordinator registered with the stack.
type proc struct {
	s   *liveStack
	id  msg.Identity
	fps *softqos.ValueSensor
	buf *softqos.ValueSensor
	jit *versionSensor

	// onSkip runs on the process's dispatcher for every frame_skip the
	// host manager requests.
	onSkip atomic.Pointer[func()]

	lc *softqos.LiveCoordinator // untraced

	// traced
	n       *node
	nt      *msg.NetTransport
	coord   *instrument.Coordinator
	regDone chan error
}

// versionSensor is the jitter sensor, reporting each install of a policy
// version: the coordinator re-watches every condition when a policy set
// arrives, and the jitter bound encodes the version (policyText).
type versionSensor struct {
	*softqos.ValueSensor
	mu        sync.Mutex
	version   int
	installs  int
	onInstall func(version int)
}

func (v *versionSensor) Watch(condID int, op string, threshold float64) {
	v.ValueSensor.Watch(condID, op, threshold)
	ver := versionOf(threshold)
	v.mu.Lock()
	v.version = ver
	v.installs++
	fn := v.onInstall
	v.mu.Unlock()
	if fn != nil {
		fn(ver)
	}
}

// installed returns the installed policy version and how many policy
// sets have been installed.
func (v *versionSensor) installed() (version, installs int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.version, v.installs
}

// newProc creates a process with a fresh identity (addresses are never
// reused within a run). role is "" or a user role.
func (s *liveStack) newProc(role string, onInstall func(*proc, int)) *proc {
	pid := int(s.nextPID.Add(1))
	p := &proc{s: s, id: msg.Identity{Host: benchHost, PID: pid, Executable: exeName,
		Application: appName, UserRole: role}}
	p.fps = softqos.NewValueSensor("fps_sensor", "frame_rate", nil)
	p.buf = softqos.NewValueSensor("buffer_sensor", "buffer_size", nil)
	p.jit = &versionSensor{ValueSensor: softqos.NewValueSensor("jitter_sensor", "jitter_rate", nil), version: -1}
	if onInstall != nil {
		p.jit.onInstall = func(v int) { onInstall(p, v) }
	}
	skip := softqos.NewFuncActuator("frame_skip", func(...string) error {
		// The application skips frames and its delivered rate returns
		// into the policy band.
		p.fps.Set(24)
		if fn := p.onSkip.Load(); fn != nil {
			(*fn)()
		}
		return nil
	})
	var c *instrument.Coordinator
	if s.tr == nil {
		p.lc = softqos.NewLiveCoordinator(p.id, s.agentAddr, s.hmAddr)
		p.lc.SetTelemetry(s.reg, nil)
		c = p.lc.Coordinator
	} else {
		p.newTraced()
		c = p.coord
	}
	c.AddSensor(p.fps)
	c.AddSensor(p.jit)
	c.AddSensor(p.buf)
	c.AddActuator(skip)
	c.SetNotifyInterval(0)
	return p
}

// newTraced wires what softqos.NewLiveCoordinator wires.
func (p *proc) newTraced() {
	s := p.s
	nt, err := msg.NewNetTransport(p.id.Host, "")
	if err != nil {
		panic(err) // a dial-only node opens no listener and cannot fail
	}
	p.nt = nt
	p.regDone = make(chan error, 1)
	start := time.Now()
	clock := instrument.Clock(func() time.Duration { return time.Since(start) })
	p.n = &node{}
	p.coord = instrument.NewCoordinator(p.id, clock, s.tr.tracedSend(p.n, nt.Send, nil), s.agentAddr, s.hmAddr)
	p.n.name = p.coord.Address()
	handle := func(m msg.Message) {
		switch b := m.Body.(type) {
		case *msg.PolicySet, *msg.Nack:
			err := p.coord.HandleMessage(m)
			select {
			case p.regDone <- err:
			default:
			}
		case *msg.Directive:
			if b.Action == "actuate" {
				_ = p.coord.HandleMessage(m)
			}
		}
	}
	nt.Bind(p.coord.Address(), p.id.Host, s.tr.tracedHandler(p.n, func(m msg.Message) string {
		switch m.Body.(type) {
		case *msg.PolicySet:
			return "instrument.install"
		case *msg.Directive:
			return "instrument.actuate"
		}
		return "instrument.reply"
	}, handle))
	nt.SetMetrics(s.reg)
	p.coord.SetTelemetry(s.reg, nil)
}

var errRegisterTimeout = errors.New("registration not answered in time")

// register performs the instrumented start-up: Register to the agent,
// returning once the policy set is installed (or refused).
func (p *proc) register(op int64, parent int32) error {
	if p.lc != nil {
		return p.lc.Register()
	}
	p.n.set(op, parent)
	err := p.coord.Register()
	p.n.set(0, 0)
	if err != nil {
		return err
	}
	select {
	case err := <-p.regDone:
		return err
	case <-time.After(adaptTimeout):
		return errRegisterTimeout
	}
}

// violate runs the violating sensor update (buffer 12, frame rate 10) on
// the process's dispatcher: the coordinator evaluates the policy and
// reports the violation to the host manager.
func (p *proc) violate(op int64, parent int32) {
	p.update(op, parent, func() {
		p.jit.Set(0.3)
		p.buf.Set(12)
		p.fps.Set(10)
	})
}

// comply returns the process's readings into the policy band.
func (p *proc) comply() {
	p.update(0, 0, func() {
		p.jit.Set(0.3)
		p.buf.Set(2)
		p.fps.Set(25)
	})
}

func (p *proc) update(op int64, parent int32, fn func()) {
	if p.lc != nil {
		p.lc.Sync(fn)
		return
	}
	tr := p.s.tr
	enq := tr.now()
	p.nt.Sync(func() {
		start := tr.now()
		tr.record("instrument.sync_wait", parent, op, enq, start)
		id := tr.reserve()
		p.n.set(op, id)
		fn()
		p.n.set(0, 0)
		tr.finish(id, "instrument.notify", parent, op, start, tr.now())
	})
}

// close exits the process.
func (p *proc) close() {
	if p.lc != nil {
		p.lc.Close()
		return
	}
	_ = p.nt.Close()
}

// Close lets the stack close a process it outlives.
func (p *proc) Close() error {
	p.close()
	return nil
}
