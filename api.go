package softqos

import (
	"time"

	"softqos/internal/instrument"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/repository"
	"softqos/internal/scenario"
	"softqos/internal/video"
)

// Scenario-level API: build fully wired managed systems on the virtual
// clock and run experiments on them.
type (
	// Config parameterizes a scenario (load, managed vs normal, stream
	// shape, policies, fault injection hooks).
	Config = scenario.Config
	// System is a fully assembled scenario.
	System = scenario.System
	// Result summarizes a run (mean FPS, violation and adaptation
	// counters, per-second timeline).
	Result = scenario.Result
	// Sample is one timeline observation.
	Sample = scenario.Sample
	// Fig3Row is one point of the Figure 3 reproduction.
	Fig3Row = scenario.Fig3Row
	// StreamConfig describes the managed video stream.
	StreamConfig = video.StreamConfig
)

// Build assembles a managed system from a configuration.
func Build(cfg Config) *System { return scenario.Build(cfg) }

// Figure3 regenerates the paper's Figure 3 series.
func Figure3(loads []float64, warmup, measure time.Duration, seed int64) []Fig3Row {
	return scenario.Figure3(loads, warmup, measure, seed)
}

// Fig3Loads are the x-axis values of the paper's Figure 3.
var Fig3Loads = scenario.Fig3Loads

// Example1Policy is the paper's Example 1 policy text.
const Example1Policy = scenario.Example1Policy

// Policy-language API.
type (
	// Policy is a parsed obligation policy.
	Policy = policy.Policy
	// PolicySpec is the compiled form delivered to coordinators.
	PolicySpec = msg.PolicySpec
	// Identity names a managed process for policy lookup.
	Identity = msg.Identity
)

// ParsePolicy parses exactly one policy.
func ParsePolicy(src string) (*Policy, error) { return policy.ParseOne(src) }

// Repository and administration API.
type (
	// Directory is the LDAP-like information tree.
	Directory = repository.Directory
	// RepositoryService is the typed information-model facade.
	RepositoryService = repository.Service
	// PolicyMeta binds a stored policy to application/executable/role.
	PolicyMeta = repository.PolicyMeta
	// Admin is the policy administration application (integrity checks,
	// store, browse).
	Admin = mgmt.Admin
)

// NewDirectory creates a directory validating against the paper's
// information-model schema.
func NewDirectory() *Directory { return repository.NewDirectory(repository.QoSSchema()) }

// NewRepositoryService wraps an in-process directory.
func NewRepositoryService(d *Directory) *RepositoryService {
	return repository.NewService(repository.LocalStore{Dir: d})
}

// NewAdmin creates the policy administration application.
func NewAdmin(svc *RepositoryService) *Admin { return mgmt.NewAdmin(svc) }

// Instrumentation API (shared by simulation and live modes).
type (
	// Sensor observes one process attribute.
	Sensor = instrument.Sensor
	// RateSensor measures event rates (frames/second).
	RateSensor = instrument.RateSensor
	// JitterSensor measures pacing irregularity.
	JitterSensor = instrument.JitterSensor
	// ValueSensor is a generic gauge.
	ValueSensor = instrument.ValueSensor
	// Coordinator tracks policy adherence inside one process.
	Coordinator = instrument.Coordinator
	// Clock supplies time to sensors.
	Clock = instrument.Clock
	// Actuator is an adaptation knob a manager can drive through an
	// actuate directive.
	Actuator = instrument.Actuator
	// FuncActuator adapts a plain function into an Actuator.
	FuncActuator = instrument.FuncActuator
)

// NewFuncActuator wraps fn as an actuator with the given ID.
func NewFuncActuator(name string, fn func(args ...string) error) *FuncActuator {
	return &FuncActuator{Name: name, Fn: fn}
}

// NewRateSensor creates a rate sensor with the given reporting window.
func NewRateSensor(id, attr string, clock Clock, window time.Duration) *RateSensor {
	return instrument.NewRateSensor(id, attr, clock, window)
}

// NewJitterSensor creates a jitter sensor for a stream with the given
// nominal inter-event spacing.
func NewJitterSensor(id, attr string, clock Clock, nominal time.Duration) *JitterSensor {
	return instrument.NewJitterSensor(id, attr, clock, nominal)
}

// NewValueSensor creates a gauge sensor; source may be nil when only Set
// is used.
func NewValueSensor(id, attr string, source func() float64) *ValueSensor {
	return instrument.NewValueSensor(id, attr, source)
}

// MultiAppConfig parameterizes the administrative-policy experiment: two
// sessions share one host whose CPU cannot satisfy both.
type MultiAppConfig = scenario.MultiAppConfig

// MultiAppResult reports per-role outcomes of the experiment.
type MultiAppResult = scenario.MultiAppResult

// MultiApp runs two concurrent managed playback sessions on one host and
// reports the mean FPS each achieved.
func MultiApp(cfg MultiAppConfig, warmup, measure time.Duration) MultiAppResult {
	return scenario.MultiApp(cfg, warmup, measure)
}
