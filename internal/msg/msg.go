// Package msg defines the management-plane protocol spoken between
// instrumented processes (coordinators), policy agents, QoS host managers
// and QoS domain managers, together with two interchangeable transports:
// an in-simulation bus (the analogue of the prototype's UNIX message
// queues) and a TCP transport of length-prefixed binary frames (the
// analogue of its sockets) used by live, wall-clock instrumentation.
package msg

import (
	"fmt"

	"softqos/internal/telemetry"
)

// Identity names a managed process the way the paper's policy agent keys
// policy lookup: process, executable, application, user role, host.
type Identity struct {
	Host        string `json:"host"`
	PID         int    `json:"pid"`
	Executable  string `json:"executable"`
	Application string `json:"application"`
	UserRole    string `json:"userRole"`
}

// Address returns the canonical hierarchical name used in policy subjects,
// e.g. "/video-client/VideoApplication/mpeg_play/1234".
func (id Identity) Address() string {
	return fmt.Sprintf("/%s/%s/%s/%d", id.Host, id.Application, id.Executable, id.PID)
}

// Register is sent by a starting process to the policy agent (§6.2 Policy
// Agent: "When a process starts up, it registers with the policy agent").
type Register struct {
	ID      Identity `json:"id"`
	Sensors []string `json:"sensors"` // sensor identifiers compiled into the executable
}

// PolicySpec is the wire form of one compiled policy delivered to a
// coordinator: the condition list, boolean connective and action list of
// §5.2.
type PolicySpec struct {
	Name       string       `json:"name"`
	Connective string       `json:"connective"` // "and" | "or"
	Conditions []CondSpec   `json:"conditions"`
	Actions    []ActionSpec `json:"actions"`
}

// CondSpec is one (attribute, sensor, comparison, value) condition.
type CondSpec struct {
	Attribute string  `json:"attribute"`
	Sensor    string  `json:"sensor"`
	Op        string  `json:"op"` // "<", "<=", ">", ">=", "==", "!="
	Value     float64 `json:"value"`
}

// ActionSpec is one (target, operation, arguments) action entry.
type ActionSpec struct {
	Target string   `json:"target"` // sensor id or manager address
	Op     string   `json:"op"`     // e.g. "read", "notify"
	Args   []string `json:"args"`
}

// PolicySet is the policy agent's reply to Register.
type PolicySet struct {
	ID       Identity     `json:"id"`
	Policies []PolicySpec `json:"policies"`
}

// Violation is the coordinator's report to the QoS Host Manager when a
// policy's boolean expression evaluates false: the executed "do" actions'
// sensor readings ride along.
type Violation struct {
	ID        Identity           `json:"id"`
	Policy    string             `json:"policy"`
	Readings  map[string]float64 `json:"readings"`
	Overshoot bool               `json:"overshoot"` // metric exceeded expectation (resource reclaim, not a fault)
}

// Query asks a host manager for host/process statistics (domain manager
// rule: "ask the corresponding server-side QoS Host Manager for CPU load
// and memory usage").
type Query struct {
	From string   `json:"from"`
	Keys []string `json:"keys"` // e.g. "cpu_load", "mem_usage", "proc_cpu:<pid>"
	Ref  string   `json:"ref"`  // correlation tag echoed in the reply
}

// Report carries statistic values back to the querier.
type Report struct {
	Host   string             `json:"host"`
	Values map[string]float64 `json:"values"`
	Ref    string             `json:"ref"`
}

// Alarm escalates a suspected non-local fault from a host manager to the
// domain manager.
type Alarm struct {
	ID       Identity           `json:"id"`
	Policy   string             `json:"policy"`
	Readings map[string]float64 `json:"readings"`
	Suspect  string             `json:"suspect"` // "remote", "network", ...
}

// Directive is a corrective action pushed down to a host manager, e.g.
// "increase the CPU priority of the server process".
type Directive struct {
	From   string  `json:"from"`
	Action string  `json:"action"` // "boost_cpu", "set_resident", "reroute"
	Target string  `json:"target"` // executable or pid selector
	Amount float64 `json:"amount"`
}

// Ack confirms receipt/execution of a directive.
type Ack struct {
	Ref string `json:"ref"`
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// Nack is an explicit failure reply: the receiver could not serve the
// request (e.g. the policy agent's repository lookup failed), so the
// sender must not mistake the outcome for an empty result.
type Nack struct {
	ID     Identity `json:"id"`
	Ref    string   `json:"ref"`    // what was being answered, e.g. "register"
	Reason string   `json:"reason"` // human-readable cause
}

// Heartbeat is a coordinator's periodic liveness beacon to its host
// manager. Seq increments per beacon so a manager can notice gaps; a
// manager that has never seen the sender treats the beacon as a prompt
// to re-adopt the process (the self-healing path after a manager
// restart).
type Heartbeat struct {
	ID  Identity `json:"id"`
	Seq uint64   `json:"seq"`
}

// BatchedAlarm is one coalesced entry of an AlarmBatch: the
// representative alarm (the latest occurrence's readings win), how many
// occurrences the coalescing window merged into it, and the highest
// severity observed among them.
type BatchedAlarm struct {
	Alarm    Alarm `json:"alarm"`
	Count    int   `json:"count"`
	Severity int   `json:"severity,omitempty"`
}

// AlarmBatch carries one tier's coalesced alarm traffic up the
// management hierarchy (host managers to a domain manager, domain
// managers to a region manager): the per-window alarm entries plus
// summary aggregates such as "domain_saturation" that replace per-host
// floods at the receiving tier. Tier names the emitting tier ("host",
// "domain").
type AlarmBatch struct {
	Tier    string             `json:"tier"`
	Alarms  []BatchedAlarm     `json:"alarms,omitempty"`
	Summary map[string]float64 `json:"summary,omitempty"`
}

// TelemetrySummary carries one flush window of telemetry up the
// management hierarchy: counter deltas, window maxima and mergeable
// sketch histograms. Hosts export one per window to their domain;
// domains merge inbound host summaries and export the merged window to
// the region — so the region reconstructs fleet-level distributions
// without ever holding per-host state. Tier names the emitting tier
// ("host", "domain"), Source the emitting management address, Seq the
// sender's window sequence number, and Hosts how many hosts the
// summary's window covers (1 for a host's own export).
type TelemetrySummary struct {
	Tier     string                          `json:"tier"`
	Source   string                          `json:"source"`
	Seq      uint64                          `json:"seq"`
	Hosts    uint64                          `json:"hosts,omitempty"`
	Counters map[string]float64              `json:"counters,omitempty"`
	Maxima   map[string]float64              `json:"maxima,omitempty"`
	Sketches []telemetry.NamedSketchSnapshot `json:"sketches,omitempty"`
}

// PolicyDelta pushes one policy generation change from the repository
// hub down the management hierarchy to subscribed agents (watch/notify:
// the repository notifies instead of agents re-pulling). Generation is
// the hub's monotonic counter after the change; Prev is the generation
// this delta supersedes, so a receiver whose cache is not at Prev knows
// it missed an update and must re-pull the full policy set. Scope
// selects the rollout stage: "canary" applies only on the listed Hosts,
// "fleet" promotes everywhere, "rollback" restores the prior policy set
// everywhere. Policies is the complete post-change policy set for
// Executable (deltas are state-carrying, so one frame suffices to
// converge a gap-free cache).
type PolicyDelta struct {
	Generation uint64       `json:"generation"`
	Prev       uint64       `json:"prev"`
	Executable string       `json:"executable"`
	Scope      string       `json:"scope"` // "canary" | "fleet" | "rollback"
	Hosts      []string     `json:"hosts,omitempty"`
	Policies   []PolicySpec `json:"policies,omitempty"`
	Reason     string       `json:"reason,omitempty"`
}

// Message is the envelope union: exactly one well-known body type. Trace
// is out-of-band observability metadata — the violation-trace context the
// message extends, propagated identically by both transports. On the
// wire an absent context costs one zero flag byte, so untraced traffic
// frames the same whether or not tracing is armed.
type Message struct {
	From  string                 `json:"from"`
	Trace telemetry.TraceContext `json:"-"`
	Body  any                    `json:"-"`
}

// SendFunc transmits a management message to a management address. The
// Send methods of both transports (Bus and NetTransport) satisfy it; the
// managers and coordinators depend only on this signature.
type SendFunc func(to string, m Message) error
