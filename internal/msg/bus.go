package msg

import (
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// typeTags lists the message body tags the Bus pre-registers per-type
// counters for at attach time (keeps the metric name set stable between
// runs regardless of which types actually flow). It is a fixed subset of
// allTypeTags: the determinism goldens pin exactly these names.
var typeTags = []string{"register", "policyset", "violation", "query", "report", "alarm", "directive", "ack"}

// BusHandler consumes messages delivered to an address.
type BusHandler = func(Message)

// Bus is the in-simulation management-plane transport. Each management
// component (coordinator, policy agent, host manager, domain manager)
// binds an address; Send delivers after the configured latency for the
// address pair. It models the prototype's message queues (same host) and
// management sockets (cross host).
type Bus struct {
	sim       *sim.Simulator
	endpoints map[string]endpoint

	localDelay  time.Duration
	remoteDelay time.Duration

	// In-flight messages, one FIFO per delay class. A class's delay is
	// fixed, so its messages fall due in send order: each delivery event
	// pops the head of its class's FIFO, and the callbacks are bound
	// once in NewBus instead of a closure per message.
	local, remote inflightQueue
	deliverLocal  func()
	deliverRemote func()

	Sent           uint64
	Delivered      uint64
	Dropped        uint64 // destination not bound at delivery time
	DroppedInvalid uint64 // decoded but failed Validate

	metrics *busMetrics
	frame   []byte // Send's encode scratch, reused (the Bus is single-threaded)
}

// endpoint is one bound address: its handler and the host it runs on
// (for latency selection).
type endpoint struct {
	h    BusHandler
	host string
}

// inflight is one message awaiting delivery.
type inflight struct {
	to string
	m  Message
}

// inflightQueue is a FIFO ring of in-flight messages.
type inflightQueue struct {
	buf  []inflight // len is zero or a power of two
	head int
	n    int
}

func (q *inflightQueue) push(f inflight) {
	if q.n == len(q.buf) {
		buf := make([]inflight, max(16, 2*len(q.buf)))
		for i := range q.n {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

func (q *inflightQueue) pop() inflight {
	f := q.buf[q.head]
	q.buf[q.head] = inflight{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
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
	b := &Bus{
		sim:         s,
		endpoints:   make(map[string]endpoint),
		localDelay:  localDelay,
		remoteDelay: remoteDelay,
	}
	b.deliverLocal = func() { b.deliver(&b.local) }
	b.deliverRemote = func() { b.deliver(&b.remote) }
	return b
}

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
	b.endpoints[addr] = endpoint{h, host}
}

// Unbind removes an address; in-flight messages to it are dropped at
// delivery time.
func (b *Bus) Unbind(addr string) { delete(b.endpoints, addr) }

// Bound reports whether an address has a handler.
func (b *Bus) Bound(addr string) bool { _, ok := b.endpoints[addr]; return ok }

// Send delivers m to addr after the transport latency. It returns a
// *SendError of kind ErrNoRoute if the destination is not currently
// bound (so callers can detect dead managers and departed processes
// exactly as over TCP), but a destination that unbinds while the message
// is in flight just drops it. A message whose frame would exceed
// MaxFrameBytes is refused with a *SendError of kind ErrInvalid wrapping
// ErrFrameTooBig, as on a NetTransport.
func (b *Bus) Send(addr string, m Message) error {
	to, ok := b.endpoints[addr]
	if !ok {
		return &SendError{To: addr, Kind: ErrNoRoute}
	}
	if err := Validate(m); err != nil {
		b.DroppedInvalid++
		if b.metrics != nil {
			b.metrics.droppedInvalid()
		}
		return err
	}
	// Encode the frame the message would cost on a socket, so that a
	// message too big for one is refused here exactly as a NetTransport
	// refuses it (the Bus itself delivers Message values in-process).
	frame, err := appendBinaryFrame(b.frame[:0], addr, m)
	if err != nil {
		return &SendError{To: addr, Kind: ErrInvalid, Err: err}
	}
	b.frame = frame
	b.Sent++
	if b.metrics != nil {
		b.metrics.sent.Inc()
		if tag, err := typeTag(m.Body); err == nil {
			if c, ok := b.metrics.byType[tag]; ok {
				c.Inc()
			}
		}
		// Byte accounting leaves out the destination address and the
		// trace context: tracing is out-of-band metadata and must not
		// perturb the deterministic msg.bus.bytes counter pinned by the
		// goldens.
		b.metrics.bytes.Add(uint64(modeledFrameLen(frame, addr, m.Trace)))
	}
	if to.host != "" && b.endpoints[m.From].host == to.host {
		b.local.push(inflight{addr, m})
		b.sim.After(b.localDelay, b.deliverLocal)
	} else {
		b.remote.push(inflight{addr, m})
		b.sim.After(b.remoteDelay, b.deliverRemote)
	}
	return nil
}

// deliver hands the head of q to its destination's current handler, or
// drops it if the destination has unbound since the send.
func (b *Bus) deliver(q *inflightQueue) {
	f := q.pop()
	ep, ok := b.endpoints[f.to]
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
	ep.h(f.m)
}
