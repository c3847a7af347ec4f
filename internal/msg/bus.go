package msg

import (
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// typeTags lists every message body tag, for pre-registering per-type
// counters at attach time (keeps the metric name set stable between runs
// regardless of which types actually flow).
var typeTags = []string{"register", "policyset", "violation", "query", "report", "alarm", "directive", "ack"}

// BusHandler consumes messages delivered to an address.
type BusHandler = func(Message)

// Bus is the in-simulation management-plane transport. Each management
// component (coordinator, policy agent, host manager, domain manager)
// binds an address; Send delivers after the configured latency for the
// address pair. It models the prototype's message queues (same host) and
// management sockets (cross host).
type Bus struct {
	sim      *sim.Simulator
	handlers map[string]BusHandler
	hostOf   map[string]string // address -> host, for latency selection

	localDelay  time.Duration
	remoteDelay time.Duration

	// wire selects the codec used for byte accounting (the Bus delivers
	// Message values in-process, so the "wire" only exists as the
	// modeled msg.bus.bytes cost). WireJSON is the default; the
	// pre-existing determinism goldens pin its byte counts.
	wire WireFormat

	Sent           uint64
	Delivered      uint64
	Dropped        uint64 // destination not bound at delivery time
	DroppedInvalid uint64 // decoded but failed Validate

	metrics *busMetrics
}

// busMetrics holds the bus transport's pre-resolved metric handles. The
// invalid-drop counter is resolved lazily on the first drop so the
// registered metric name set (and therefore deterministic snapshots) is
// unchanged for runs where no malformed message ever flows.
type busMetrics struct {
	reg       *telemetry.Registry
	sent      *telemetry.Counter
	delivered *telemetry.Counter
	dropped   *telemetry.Counter
	bytes     *telemetry.Counter
	byType    map[string]*telemetry.Counter
	invalid   *telemetry.Counter // lazy; see droppedInvalid
}

// droppedInvalid counts one validation drop (the Bus is driven by the
// single-threaded simulator loop, so lazy resolution needs no lock).
func (m *busMetrics) droppedInvalid() {
	if m.invalid == nil {
		m.invalid = m.reg.Counter("msg.bus.dropped_invalid")
	}
	m.invalid.Inc()
}

// NewBus creates a bus with the given IPC latencies: localDelay applies
// between addresses on the same host, remoteDelay otherwise.
func NewBus(s *sim.Simulator, localDelay, remoteDelay time.Duration) *Bus {
	return &Bus{
		sim:         s,
		handlers:    make(map[string]BusHandler),
		hostOf:      make(map[string]string),
		localDelay:  localDelay,
		remoteDelay: remoteDelay,
	}
}

// SetWireFormat selects the codec the bus models for byte accounting
// (msg.bus.bytes). Scenario runs that want the binary fast path's
// modeled costs opt in; the default stays WireJSON so existing seeded
// runs are unchanged.
func (b *Bus) SetWireFormat(f WireFormat) { b.wire = f }

// SetMetrics attaches the bus to a metrics registry: counters for
// messages sent/delivered/dropped, wire bytes, and per-type message
// counts under "msg.bus.*".
func (b *Bus) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		b.metrics = nil
		return
	}
	m := &busMetrics{
		reg:       reg,
		sent:      reg.Counter("msg.bus.sent"),
		delivered: reg.Counter("msg.bus.delivered"),
		dropped:   reg.Counter("msg.bus.dropped"),
		bytes:     reg.Counter("msg.bus.bytes"),
		byType:    make(map[string]*telemetry.Counter, len(typeTags)),
	}
	for _, tag := range typeTags {
		m.byType[tag] = reg.Counter("msg.bus.sent." + tag)
	}
	b.metrics = m
}

// Bind attaches a handler to an address located on host. Rebinding an
// address replaces the handler (used when a manager restarts).
func (b *Bus) Bind(addr, host string, h BusHandler) {
	b.handlers[addr] = h
	b.hostOf[addr] = host
}

// Unbind removes an address; in-flight messages to it are dropped at
// delivery time.
func (b *Bus) Unbind(addr string) {
	delete(b.handlers, addr)
	delete(b.hostOf, addr)
}

// Bound reports whether an address has a handler.
func (b *Bus) Bound(addr string) bool { _, ok := b.handlers[addr]; return ok }

// Send delivers m to addr after the transport latency. It returns a
// *SendError of kind ErrNoRoute if the destination is not currently
// bound (so callers can detect dead managers and departed processes
// exactly as over TCP), but a destination that unbinds while the message
// is in flight just drops it.
func (b *Bus) Send(addr string, m Message) error {
	if _, ok := b.handlers[addr]; !ok {
		return &SendError{To: addr, Kind: ErrNoRoute}
	}
	if err := Validate(m); err != nil {
		b.DroppedInvalid++
		if b.metrics != nil {
			b.metrics.droppedInvalid()
		}
		return err
	}
	b.Sent++
	if b.metrics != nil {
		b.metrics.sent.Inc()
		if tag, err := typeTag(m.Body); err == nil {
			if c, ok := b.metrics.byType[tag]; ok {
				c.Inc()
			}
		}
		// Byte accounting marshals without the trace context: tracing is
		// out-of-band metadata and must not perturb the deterministic
		// msg.bus.bytes counter pinned by the goldens. The encode goes
		// through a pooled buffer — only the length is kept.
		untraced := m
		untraced.Trace = telemetry.TraceContext{}
		buf := getWireBuf()
		if data, err := appendWire(buf[:0], b.wire, "", untraced); err == nil {
			b.metrics.bytes.Add(uint64(len(data)))
			putWireBuf(data)
		} else {
			putWireBuf(buf)
		}
	}
	delay := b.remoteDelay
	if from, to := b.hostOf[m.From], b.hostOf[addr]; from != "" && from == to {
		delay = b.localDelay
	}
	b.sim.After(delay, func() {
		h, ok := b.handlers[addr]
		if !ok {
			b.Dropped++
			if b.metrics != nil {
				b.metrics.dropped.Inc()
			}
			return
		}
		b.Delivered++
		if b.metrics != nil {
			b.metrics.delivered.Inc()
		}
		h(m)
	})
	return nil
}
