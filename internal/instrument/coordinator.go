package instrument

import (
	"fmt"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

// SendFunc transmits a management message to an address (bus or TCP).
type SendFunc = msg.SendFunc

// policyObj is the coordinator's runtime representation of one policy
// (§5.2): a boolean variable per condition, the connective joining them,
// and the action list to run on violation.
type policyObj struct {
	spec  msg.PolicySpec
	truth []bool // truth of condition i
	known []bool // condition i has been evaluated at least once
	// violated tracks the previous evaluation so transitions can be
	// counted; traced tracks whether a violation trace is open for the
	// current episode (an episode may begin as an untraced overshoot and
	// degrade into a traced violation).
	violated bool
	traced   bool
}

// eval computes the boolean expression. Unevaluated conditions are
// assumed satisfied (the optimistic initial allocation of the paper's
// strategy).
func (po *policyObj) eval() bool {
	if po.spec.Connective == "or" {
		for i := range po.truth {
			if !po.known[i] || po.truth[i] {
				return true
			}
		}
		return false
	}
	for i := range po.truth {
		if po.known[i] && !po.truth[i] {
			return false
		}
	}
	return true
}

// unsatisfiedUpperBoundsOnly reports whether every failing condition is
// the upper half of a tolerance band — an upper bound ("<", "<=") on an
// attribute that also has a satisfied lower bound in the same policy.
// That means the metric merely exceeds its expectation, which per the
// strategy of Section 2 triggers resource reclamation rather than fault
// diagnosis. An attribute constrained only from above (e.g. jitter_rate
// < 1.25) breaching high is a genuine violation.
func (po *policyObj) unsatisfiedUpperBoundsOnly() bool {
	hasLower := make(map[string]bool)
	for i, c := range po.spec.Conditions {
		if (c.Op == ">" || c.Op == ">=") && po.known[i] && po.truth[i] {
			hasLower[c.Attribute] = true
		}
	}
	any := false
	for i, c := range po.spec.Conditions {
		if po.known[i] && !po.truth[i] {
			any = true
			if (c.Op != "<" && c.Op != "<=") || !hasLower[c.Attribute] {
				return false
			}
		}
	}
	return any
}

// Coordinator oversees the policies of one instrumented process: it
// registers with the policy agent, installs policy thresholds into
// sensors, evaluates policy expressions when sensors alarm, executes the
// do-actions and notifies the QoS Host Manager. All knowledge of the host
// manager is confined here, hiding it from the rest of the
// instrumentation (§5.2).
type Coordinator struct {
	id    msg.Identity
	clock Clock
	send  SendFunc

	agentAddr   string
	managerAddr string

	sensors   map[string]Sensor
	actuators map[string]Actuator

	policies []*policyObj
	// condition registry: global condition id -> (policy, index) and the
	// sensor evaluating it.
	condOwner  map[int][]condRef
	condSensor map[int]Sensor
	nextCond   int

	// horizon, when non-zero, makes installed conditions predictive.
	horizon time.Duration

	// Notification pacing: at most one violation report per policy per
	// interval, so a persistent violation produces a steady stream of
	// reports for iterative adaptation rather than a flood.
	notifyEvery time.Duration
	lastNotify  map[string]time.Duration

	// Statistics.
	Alarms     uint64
	Violations uint64
	Overshoots uint64
	Notifies   uint64
	// Nacks counts registrations the policy agent refused (repository
	// fault); NackReason keeps the latest cause. The process then runs
	// unmanaged, knowingly.
	Nacks      uint64
	NackReason string

	// Telemetry (optional; see SetTelemetry).
	metrics *coordMetrics
	tracer  *telemetry.Tracer

	// registered flips when a PolicySet lands; a re-registration loop
	// polls it to survive agent restarts. hbSeq numbers heartbeats.
	registered bool
	hbSeq      uint64
}

// coordMetrics holds the coordinator's pre-resolved metric handles so hot
// paths never touch the registry lock.
type coordMetrics struct {
	alarms     *telemetry.Counter
	violations *telemetry.Counter
	overshoots *telemetry.Counter
	notifies   *telemetry.Counter
	suppressed *telemetry.Counter
	passes     *telemetry.Counter
	passNS     *telemetry.Histogram
	wall       telemetry.Clock
}

type condRef struct {
	policy *policyObj
	idx    int
}

// NewCoordinator creates a coordinator for the identified process.
// agentAddr is the policy agent's address; managerAddr the QoS host
// manager's.
func NewCoordinator(id msg.Identity, clock Clock, send SendFunc, agentAddr, managerAddr string) *Coordinator {
	return &Coordinator{
		id:          id,
		clock:       clock,
		send:        send,
		agentAddr:   agentAddr,
		managerAddr: managerAddr,
		sensors:     make(map[string]Sensor),
		actuators:   make(map[string]Actuator),
		condOwner:   make(map[int][]condRef),
		condSensor:  make(map[int]Sensor),
		notifyEvery: 500 * time.Millisecond,
		lastNotify:  make(map[string]time.Duration),
	}
}

// Identity returns the process identity.
func (c *Coordinator) Identity() msg.Identity { return c.id }

// Address returns the coordinator's management address.
func (c *Coordinator) Address() string { return c.id.Address() + "/qosl_coordinator" }

// SetNotifyInterval adjusts violation-report pacing.
func (c *Coordinator) SetNotifyInterval(d time.Duration) { c.notifyEvery = d }

// SetPredictionHorizon makes every installed policy condition predictive:
// sensors evaluate values extrapolated d along their trend, so the
// framework reacts before the expectation is actually violated (the
// proactive QoS of the paper's future work). Zero restores reactive
// evaluation. The horizon also applies to conditions installed later.
func (c *Coordinator) SetPredictionHorizon(d time.Duration) {
	c.horizon = d
	for condID, s := range c.condSensor {
		_ = s.SetHorizon(condID, d)
	}
}

// SetTelemetry attaches the coordinator and its sensors to a metrics
// registry and (optionally) a violation tracer. Pass-cost nanoseconds are
// recorded only when the registry has a wall clock (SetWallClock), so
// simulated runs stay byte-for-byte reproducible.
func (c *Coordinator) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	c.tracer = tracer
	if reg == nil {
		c.metrics = nil
		return
	}
	c.metrics = &coordMetrics{
		alarms:     reg.Counter("instrument.alarms"),
		violations: reg.Counter("instrument.violations"),
		overshoots: reg.Counter("instrument.overshoots"),
		notifies:   reg.Counter("instrument.notifies"),
		suppressed: reg.Counter("instrument.notifies_suppressed"),
		passes:     reg.Counter("instrument.sensor_passes"),
		passNS:     reg.Histogram("instrument.sensor_pass_ns", 0),
		wall:       reg.WallClock(),
	}
	for _, s := range c.sensors {
		c.attachSensorTelemetry(s)
	}
}

func (c *Coordinator) attachSensorTelemetry(s Sensor) {
	if c.metrics == nil {
		return
	}
	if ts, ok := s.(interface {
		setPassTelemetry(*telemetry.Counter, *telemetry.Histogram, telemetry.Clock)
	}); ok {
		ts.setPassTelemetry(c.metrics.passes, c.metrics.passNS, c.metrics.wall)
	}
}

// AddSensor registers an instrumented sensor and wires its alarms to the
// coordinator.
func (c *Coordinator) AddSensor(s Sensor) {
	c.sensors[s.ID()] = s
	s.SetAlarmFunc(c.onAlarm)
	c.attachSensorTelemetry(s)
}

// AddActuator registers an actuator.
func (c *Coordinator) AddActuator(a Actuator) { c.actuators[a.ID()] = a }

// Sensor returns a registered sensor, or nil.
func (c *Coordinator) Sensor(id string) Sensor { return c.sensors[id] }

// SensorIDs returns registered sensor identifiers.
func (c *Coordinator) SensorIDs() []string {
	out := make([]string, 0, len(c.sensors))
	for id := range c.sensors {
		out = append(out, id)
	}
	return out
}

// Register sends the process registration to the policy agent (§6.2).
// The agent answers with a PolicySet which the harness routes to
// HandleMessage.
func (c *Coordinator) Register() error {
	return c.send(c.agentAddr, msg.Message{
		From: c.Address(),
		Body: msg.Register{ID: c.id, Sensors: c.SensorIDs()},
	})
}

// Registered reports whether a PolicySet has arrived since the last
// Register. Resilience loops re-Register while it is false: the
// original registration (or its reply) may have been lost in flight.
func (c *Coordinator) Registered() bool { return c.registered }

// Heartbeat sends a liveness beacon to the host manager so its failure
// detector keeps this process alive between violation reports — and so
// a restarted manager that lost its tracking tables re-adopts the
// process.
func (c *Coordinator) Heartbeat() error {
	c.hbSeq++
	return c.send(c.managerAddr, msg.Message{
		From: c.Address(),
		Body: msg.Heartbeat{ID: c.id, Seq: c.hbSeq},
	})
}

// HandleMessage processes an inbound management message (the PolicySet
// reply from the agent).
func (c *Coordinator) HandleMessage(m msg.Message) error {
	switch body := m.Body.(type) {
	case *msg.PolicySet:
		return c.InstallPolicies(body.Policies)
	case msg.PolicySet:
		return c.InstallPolicies(body.Policies)
	case *msg.Directive:
		return c.handleDirective(*body)
	case msg.Directive:
		return c.handleDirective(body)
	case *msg.Nack:
		return c.handleNack(*body)
	case msg.Nack:
		return c.handleNack(body)
	default:
		return fmt.Errorf("instrument: coordinator %s: unexpected message %T", c.id.Address(), m.Body)
	}
}

// handleNack records a refused registration: the policy agent could not
// resolve this process's policies, so it stays unmanaged — explicitly,
// rather than by mistaking the fault for an empty policy set.
func (c *Coordinator) handleNack(n msg.Nack) error {
	c.Nacks++
	c.NackReason = n.Reason
	return fmt.Errorf("instrument: coordinator %s: registration refused: %s", c.id.Address(), n.Reason)
}

// handleDirective executes a management directive addressed to the
// process itself — currently actuator invocations, through which managers
// ask the application to adapt its behaviour (e.g. degrade the stream
// under overload).
func (c *Coordinator) handleDirective(d msg.Directive) error {
	if d.Action != "actuate" {
		return fmt.Errorf("instrument: coordinator %s: unsupported directive %q", c.id.Address(), d.Action)
	}
	act, ok := c.actuators[d.Target]
	if !ok {
		return fmt.Errorf("instrument: coordinator %s: no actuator %q", c.id.Address(), d.Target)
	}
	return act.Apply(fmt.Sprintf("%g", d.Amount))
}

// InstallPolicies replaces the coordinator's policy set: previous watches
// are removed from sensors and each new policy's conditions registered
// (the coordinator's policy-object construction of §5.2).
func (c *Coordinator) InstallPolicies(specs []msg.PolicySpec) error {
	// Clear previous registrations.
	for condID, refs := range c.condOwner {
		if len(refs) > 0 {
			for _, s := range c.sensors {
				s.Unwatch(condID)
			}
		}
	}
	c.condOwner = make(map[int][]condRef)
	c.condSensor = make(map[int]Sensor)
	c.policies = nil

	for _, spec := range specs {
		po := &policyObj{
			spec:  spec,
			truth: make([]bool, len(spec.Conditions)),
			known: make([]bool, len(spec.Conditions)),
		}
		for i, cond := range spec.Conditions {
			s, ok := c.sensors[cond.Sensor]
			if !ok {
				return fmt.Errorf("instrument: policy %s references unknown sensor %q", spec.Name, cond.Sensor)
			}
			if s.Attribute() != cond.Attribute {
				return fmt.Errorf("instrument: policy %s: sensor %q monitors %q, not %q",
					spec.Name, cond.Sensor, s.Attribute(), cond.Attribute)
			}
			condID := c.nextCond
			c.nextCond++
			c.condOwner[condID] = append(c.condOwner[condID], condRef{po, i})
			c.condSensor[condID] = s
			s.Watch(condID, cond.Op, cond.Value)
			if c.horizon > 0 {
				_ = s.SetHorizon(condID, c.horizon)
			}
		}
		c.policies = append(c.policies, po)
	}
	c.registered = true
	return nil
}

// InstalledSpecs returns copies of the installed policy specs (e.g. for
// renegotiation: transform and re-install).
func (c *Coordinator) InstalledSpecs() []msg.PolicySpec {
	out := make([]msg.PolicySpec, len(c.policies))
	for i, po := range c.policies {
		spec := po.spec
		spec.Conditions = append([]msg.CondSpec(nil), po.spec.Conditions...)
		spec.Actions = append([]msg.ActionSpec(nil), po.spec.Actions...)
		out[i] = spec
	}
	return out
}

// Policies returns the names of installed policies.
func (c *Coordinator) Policies() []string {
	out := make([]string, len(c.policies))
	for i, po := range c.policies {
		out[i] = po.spec.Name
	}
	return out
}

// onAlarm is the sensor alarm sink: it maps the alarm to the boolean
// variables of affected policy objects and re-evaluates them (the
// coordinator algorithm of §5.2).
func (c *Coordinator) onAlarm(condID int, satisfied bool, _ float64) {
	c.Alarms++
	if c.metrics != nil {
		c.metrics.alarms.Inc()
	}
	for _, ref := range c.condOwner[condID] {
		ref.policy.truth[ref.idx] = satisfied
		ref.policy.known[ref.idx] = true
		c.evaluatePolicy(ref.policy)
	}
}

func (c *Coordinator) evaluatePolicy(po *policyObj) {
	ok := po.eval()
	if ok {
		// A transition back to compliance closes any open violation trace
		// (overshoot-only episodes never open one).
		if po.traced && c.tracer != nil {
			c.tracer.Resolve(c.id.Address(), po.spec.Name)
		}
		po.violated = false
		po.traced = false
		return
	}
	po.violated = true
	overshoot := po.unsatisfiedUpperBoundsOnly()
	if overshoot {
		c.Overshoots++
		if c.metrics != nil {
			c.metrics.overshoots.Inc()
		}
	} else {
		c.Violations++
		if c.metrics != nil {
			c.metrics.violations.Inc()
		}
		// Open the trace on the first real violation of the episode, even
		// when the episode began as an overshoot.
		if !po.traced && c.tracer != nil {
			c.tracer.Begin(c.id.Address(), po.spec.Name, "coordinator", "policy expression false")
			po.traced = true
		}
	}
	// Pace notifications.
	now := c.clock()
	if last, seen := c.lastNotify[po.spec.Name]; seen && now-last < c.notifyEvery {
		if c.metrics != nil {
			c.metrics.suppressed.Inc()
		}
		return
	}
	c.lastNotify[po.spec.Name] = now
	c.runActions(po, overshoot)
}

// runActions executes the policy's do-list: sensor reads accumulate
// readings; the manager notification carries them (paper, Example 1).
func (c *Coordinator) runActions(po *policyObj, overshoot bool) {
	readings := make(map[string]float64)
	for _, a := range po.spec.Actions {
		if s, ok := c.sensors[a.Target]; ok {
			switch a.Op {
			case "read":
				// The argument names the attribute the value is bound to;
				// default to the sensor's attribute.
				attr := s.Attribute()
				if len(a.Args) > 0 {
					attr = a.Args[0]
				}
				readings[attr] = s.Read()
			case "enable":
				s.SetEnabled(true)
			case "disable":
				s.SetEnabled(false)
			}
			continue
		}
		if act, ok := c.actuators[a.Target]; ok {
			_ = act.Apply(a.Args...)
			continue
		}
		if a.Op == "notify" {
			// Only forward the named readings (non-named numeric args are
			// passed through as synthetic attributes).
			out := make(map[string]float64, len(a.Args))
			for _, arg := range a.Args {
				if v, ok := readings[arg]; ok {
					out[arg] = v
				}
			}
			c.Notifies++
			if c.metrics != nil {
				c.metrics.notifies.Inc()
			}
			var tc telemetry.TraceContext
			if !overshoot && c.tracer != nil {
				subject := c.id.Address()
				tc = c.tracer.EventCtx(c.tracer.Context(subject, po.spec.Name),
					subject, po.spec.Name, "coordinator",
					telemetry.StageNotify, "report -> "+c.managerAddr)
			}
			// The report carries the violation trace's context, so the
			// downstream managers extend the same causal tree.
			_ = c.send(c.managerAddr, msg.Message{
				From:  c.Address(),
				Trace: tc,
				Body: msg.Violation{
					ID:        c.id,
					Policy:    po.spec.Name,
					Readings:  out,
					Overshoot: overshoot,
				},
			})
		}
	}
}
