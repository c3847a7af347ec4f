package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Transport is the management-plane transport seam: what the manager
// stack needs to exchange messages, satisfied by both the in-simulation
// Bus and the live TCP NetTransport. Send must return an error when the
// destination is not reachable (unbound address, no route) so callers
// can detect dead managers.
type Transport interface {
	Send(to string, m Message) error
	Bind(addr, host string, h BusHandler)
	Unbind(addr string)
	Bound(addr string) bool
}

var (
	_ Transport = (*Bus)(nil)
	_ Transport = (*NetTransport)(nil)
)

// netMetrics holds the routed TCP transport's pre-resolved metric
// handles under "msg.net.*", with a per-type sent counter for every
// message kind.
type netMetrics struct {
	reg        *telemetry.Registry
	sent       *telemetry.Counter
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
	bytes      *telemetry.Counter
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	sendFailed *telemetry.Counter
	byType     map[string]*telemetry.Counter

	invalidOnce sync.Once
	invalid     *telemetry.Counter // lazy: registered on the first invalid drop
}

// droppedInvalid counts one validation drop, resolving the counter on
// first use so the metric only appears in registries that actually saw a
// malformed message.
func (m *netMetrics) droppedInvalid() {
	m.invalidOnce.Do(func() { m.invalid = m.reg.Counter("msg.net.dropped_invalid") })
	m.invalid.Inc()
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	m := &netMetrics{
		reg:        reg,
		sent:       reg.Counter("msg.net.sent"),
		delivered:  reg.Counter("msg.net.delivered"),
		dropped:    reg.Counter("msg.net.dropped"),
		bytes:      reg.Counter("msg.net.bytes"),
		retries:    reg.Counter("msg.net.retries"),
		reconnects: reg.Counter("msg.net.reconnects"),
		sendFailed: reg.Counter("msg.net.send_failed"),
		byType:     make(map[string]*telemetry.Counter, len(kindTags)),
	}
	for _, tag := range allTypeTags() {
		m.byType[tag] = reg.Counter("msg.net.sent." + tag)
	}
	return m
}

// NetTransport is the live-mode Transport: one node of a distributed
// management session. Each process creates one NetTransport, binds its
// local components' management addresses, and sends to any address —
// local addresses are delivered in-process, remote ones travel as routed
// binary frames over TCP connections that are dialed on demand and
// reused.
//
// Routing: a destination resolves, in order, to (1) a locally bound
// handler, (2) a connection learned from a previous inbound message with
// that From address (reply routing), (3) a static Route entry mapping
// the management address to a "host:port", or (4) the address itself
// when it looks like a "host:port". A node receiving a frame whose To
// address is not bound delivers it to its sole handler if it has exactly
// one (this lets a single-component node be addressed by its TCP
// address), otherwise drops it.
//
// All local handler invocations — whether from local sends or from any
// connection's read loop — are serialized on one dispatcher goroutine,
// so the managers run exactly as single-threaded as they do under the
// simulator and need no locking. Handlers may call Send freely (it only
// enqueues or writes, never blocks on dispatch).
type NetTransport struct {
	host string
	ln   net.Listener

	mu       sync.Mutex
	closed   bool
	handlers map[string]func(Message)
	routes   map[string]string // management address -> "host:port"
	learned  map[string]*Conn  // sender management address -> conn
	dialed   map[string]*Conn  // "host:port" -> conn
	conns    map[*Conn]struct{}
	wg       sync.WaitGroup

	dmu   sync.Mutex
	dcond *sync.Cond
	queue []func()
	ddone bool
	dexit chan struct{}

	everDialed map[string]struct{} // addrs connected at least once (for reconnect counting)

	sent           atomic.Uint64
	delivered      atomic.Uint64
	dropped        atomic.Uint64
	droppedInvalid atomic.Uint64
	retries        atomic.Uint64
	reconnects     atomic.Uint64
	sendFailed     atomic.Uint64

	evlog   atomic.Pointer[eventlog.Logger]
	metrics atomic.Pointer[netMetrics]
	retryP  atomic.Pointer[Backoff]
}

// NewNetTransport creates a live transport node named host. listen is
// the TCP listen address ("127.0.0.1:0" for an ephemeral port) or empty
// for a dial-only node (a pure client, e.g. an instrumented process that
// only talks to its agent and host manager).
func NewNetTransport(host, listen string) (*NetTransport, error) {
	t := &NetTransport{
		host:       host,
		handlers:   make(map[string]func(Message)),
		routes:     make(map[string]string),
		learned:    make(map[string]*Conn),
		dialed:     make(map[string]*Conn),
		conns:      make(map[*Conn]struct{}),
		everDialed: make(map[string]struct{}),
		dexit:      make(chan struct{}),
	}
	t.dcond = sync.NewCond(&t.dmu)
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, fmt.Errorf("msg: listen %s: %w", listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	go t.dispatchLoop()
	return t, nil
}

// Addr returns the node's TCP listen address, or "" for dial-only nodes.
func (t *NetTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetMetrics attaches the transport to a metrics registry: counters for
// messages sent/delivered/dropped, wire bytes, and per-type message
// counts under "msg.net.*".
func (t *NetTransport) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		t.metrics.Store(nil)
		return
	}
	t.metrics.Store(newNetMetrics(reg))
}

// Stats returns messages sent, delivered to local handlers, and dropped.
func (t *NetTransport) Stats() (sent, delivered, dropped uint64) {
	return t.sent.Load(), t.delivered.Load(), t.dropped.Load()
}

// DroppedInvalid returns how many decoded messages failed Validate and
// were logged and dropped instead of dispatched.
func (t *NetTransport) DroppedInvalid() uint64 { return t.droppedInvalid.Load() }

// SetEventLog routes the transport's diagnostics (invalid-frame drops,
// exhausted retries, reconnects) into the structured event log as
// component "msg" records. Pass nil to detach.
func (t *NetTransport) SetEventLog(lg *eventlog.Logger) {
	if lg == nil {
		t.evlog.Store(nil)
		return
	}
	t.evlog.Store(lg)
}

// dropInvalid counts a message that decoded but failed Validate and
// reports it as a "msg"/"invalid_drop" event-log record naming the
// node, the endpoints, the message kind ("?" for an unknown body type)
// and the error.
func (t *NetTransport) dropInvalid(to string, m Message, err error) {
	t.droppedInvalid.Add(1)
	if nm := t.metrics.Load(); nm != nil {
		nm.droppedInvalid()
	}
	kind := "?"
	if tag, tagErr := typeTag(m.Body); tagErr == nil {
		kind = tag
	}
	t.evlog.Load().EventCtx(m.Trace, eventlog.Warn, "msg", "invalid_drop",
		eventlog.Str("node", t.host), eventlog.Str("from", m.From),
		eventlog.Str("to", to), eventlog.Str("kind", kind),
		eventlog.Str("error", err.Error()))
}

// Bind attaches a handler to a local management address. The host label
// is informational (the Transport seam shares the Bus signature).
// Rebinding replaces the handler.
func (t *NetTransport) Bind(addr, host string, h BusHandler) {
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
	_ = host
}

// Unbind removes a local address.
func (t *NetTransport) Unbind(addr string) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Bound reports whether a local handler is bound at addr.
func (t *NetTransport) Bound(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.handlers[addr]
	return ok
}

// Route statically maps a management address to the TCP address of the
// node hosting it (the live analogue of the simulator's address table).
func (t *NetTransport) Route(mgmtAddr, tcpAddr string) {
	t.mu.Lock()
	t.routes[mgmtAddr] = tcpAddr
	t.mu.Unlock()
}

// Do runs fn on the dispatcher goroutine, after any queued deliveries.
// It is how embedding code touches the (lock-free) managers safely.
func (t *NetTransport) Do(fn func()) {
	t.dispatch(fn)
}

// Sync runs fn on the dispatcher goroutine and waits for it to finish.
// It must not be called from inside a handler (it would deadlock).
func (t *NetTransport) Sync(fn func()) {
	done := make(chan struct{})
	t.dispatch(func() {
		defer close(done)
		fn()
	})
	<-done
}

// SetRetryPolicy overrides the transport's send retry schedule (the
// default is DefaultBackoff). A Backoff with Attempts 1 disables
// retries entirely.
func (t *NetTransport) SetRetryPolicy(b Backoff) {
	t.retryP.Store(&b)
}

func (t *NetTransport) retryPolicy() Backoff {
	if p := t.retryP.Load(); p != nil {
		return *p
	}
	return DefaultBackoff
}

// Resilience returns how many sends were retried, how many redials of a
// previously connected peer succeeded, and how many sends failed after
// the retry schedule was exhausted.
func (t *NetTransport) Resilience() (retries, reconnects, sendFailed uint64) {
	return t.retries.Load(), t.reconnects.Load(), t.sendFailed.Load()
}

// Send delivers m to a management address: in-process when the address
// is bound locally, over TCP otherwise (see NetTransport's routing
// order). Transient connection failures — the peer restarting, a conn
// dropped mid-send — are retried with jittered exponential backoff
// (SetRetryPolicy); the peer is redialed between tries. The returned
// error is a *SendError classifying the final failure: routing and
// validation errors, and a frame over MaxFrameBytes (ErrInvalid wrapping
// ErrFrameTooBig), return immediately without retrying.
func (t *NetTransport) Send(to string, m Message) error {
	if err := Validate(m); err != nil {
		t.dropInvalid(to, m, err)
		return &SendError{To: to, Kind: ErrInvalid, Err: err}
	}
	// One encode serves every try and both paths: a local delivery
	// accounts the frame it would have cost, and a message too big for
	// a frame is refused whichever way it would go.
	buf := getWireBuf()
	frame, err := appendBinaryFrame((*buf)[:0], to, m)
	if err != nil {
		wireBufPool.Put(buf)
		return t.sendFailure(to, m, 1, &SendError{To: to, Kind: ErrInvalid, Err: err})
	}
	defer putWireBuf(buf, frame)
	policy := t.retryPolicy()
	for try := 0; ; try++ {
		if try > 0 {
			t.retries.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.retries.Inc()
			}
			t.evlog.Load().EventCtx(m.Trace, eventlog.Debug, "msg", "send_retry",
				eventlog.Str("to", to), eventlog.Int("try", try))
			time.Sleep(policy.Delay(try, rand.Float64()))
		}
		err := t.trySend(to, m, frame)
		if err == nil {
			return nil
		}
		var se *SendError
		if !errors.As(err, &se) || !se.Retryable() || policy.Exhausted(try+1) {
			return t.sendFailure(to, m, try+1, err)
		}
	}
}

// sendFailure counts and logs a send that gave up after tries attempts,
// and returns its error.
func (t *NetTransport) sendFailure(to string, m Message, tries int, err error) error {
	t.sendFailed.Add(1)
	if nm := t.metrics.Load(); nm != nil {
		nm.sendFailed.Inc()
	}
	t.evlog.Load().EventCtx(m.Trace, eventlog.Warn, "msg", "send_failed",
		eventlog.Str("to", to), eventlog.Int("tries", tries),
		eventlog.Str("error", err.Error()))
	return err
}

// trySend makes one delivery attempt of m, pre-encoded as frame.
// Connection failures forget the conn (so a retry redials) and come back
// as retryable *SendError.
func (t *NetTransport) trySend(to string, m Message, frame []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return &SendError{To: to, Kind: ErrClosed}
	}
	if h, ok := t.handlers[to]; ok {
		t.mu.Unlock()
		t.countSent(m, len(frame))
		t.dispatch(func() {
			t.delivered.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.delivered.Inc()
			}
			h(m)
		})
		return nil
	}
	c := t.learned[to]
	var dialAddr string
	if c == nil {
		tcpAddr, ok := t.routes[to]
		if !ok && looksLikeHostPort(to) {
			tcpAddr, ok = to, true
		}
		if !ok {
			t.mu.Unlock()
			return &SendError{To: to, Kind: ErrNoRoute,
				Err: fmt.Errorf("no handler or route for %q", to)}
		}
		if c = t.dialed[tcpAddr]; c == nil {
			dialAddr = tcpAddr
		}
	}
	t.mu.Unlock()

	if c == nil {
		nc, err := net.Dial("tcp", dialAddr)
		if err != nil {
			return &SendError{To: to, Kind: ErrDialFailed, Err: err}
		}
		c = NewConn(nc)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return &SendError{To: to, Kind: ErrClosed}
		}
		if prev, ok := t.dialed[dialAddr]; ok {
			// lost a dial race; use the established conn
			t.mu.Unlock()
			_ = c.Close()
			c = prev
		} else {
			if _, again := t.everDialed[dialAddr]; again {
				t.reconnects.Add(1)
				if nm := t.metrics.Load(); nm != nil {
					nm.reconnects.Inc()
				}
				t.evlog.Load().Event(eventlog.Info, "msg", "reconnect",
					eventlog.Str("node", t.host), eventlog.Str("peer", dialAddr))
			}
			t.everDialed[dialAddr] = struct{}{}
			t.dialed[dialAddr] = c
			t.conns[c] = struct{}{}
			t.wg.Add(1)
			go t.readLoop(c)
			t.mu.Unlock()
		}
	}

	if err := c.sendFrame(frame); err != nil {
		t.forgetConn(c)
		return &SendError{To: to, Kind: ErrConnLost, Err: err}
	}
	t.countSent(m, len(frame))
	return nil
}

// SeverConns abruptly closes every established connection (both dialed
// and accepted) without shutting the transport down, returning how many
// it closed. Fault injection uses it to simulate a network break; the
// next Send redials.
func (t *NetTransport) SeverConns() int {
	t.mu.Lock()
	conns := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		t.forgetConn(c)
	}
	return len(conns)
}

// countSent counts one sent message whose frame is wire bytes long (a
// local delivery counts the frame it would have cost).
func (t *NetTransport) countSent(m Message, wire int) {
	t.sent.Add(1)
	nm := t.metrics.Load()
	if nm == nil {
		return
	}
	nm.sent.Inc()
	if tag, err := typeTag(m.Body); err == nil {
		if c, ok := nm.byType[tag]; ok {
			c.Inc()
		}
	}
	nm.bytes.Add(uint64(wire))
}

func looksLikeHostPort(addr string) bool {
	return !strings.HasPrefix(addr, "/") && strings.Contains(addr, ":")
}

func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(nc)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

func (t *NetTransport) readLoop(c *Conn) {
	defer t.wg.Done()
	defer t.forgetConn(c)
	for {
		// A stream error (EOF, ErrNotBinary, ErrBadVersion, an oversize
		// length claim) leaves no frame boundary to resync on: close.
		// A peer that is not speaking this protocol is counted as a drop
		// and logged, so its disappearance can be traced.
		frame, err := c.recvFrame()
		if err != nil {
			if errors.Is(err, ErrNotBinary) || errors.Is(err, ErrBadVersion) ||
				errors.Is(err, ErrFrameTooBig) {
				t.dropped.Add(1)
				if nm := t.metrics.Load(); nm != nil {
					nm.dropped.Inc()
				}
				t.evlog.Load().Event(eventlog.Warn, "msg", "stream_rejected",
					eventlog.Str("node", t.host), eventlog.Str("peer", c.nc.RemoteAddr().String()),
					eventlog.Str("error", err.Error()))
			}
			return
		}
		// A complete frame whose payload does not decode is dropped; the
		// length prefix already put the stream at the next frame.
		to, m, err := unmarshalBinaryPayload(frame)
		if err != nil {
			t.dropped.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.dropped.Inc()
			}
			continue
		}
		// The frame parsed but may still be semantically malformed (a
		// violation without a pid, a directive without an action): log
		// and drop it with a counter rather than silently skipping or
		// handing a handler a message it would misbehave on.
		if err := Validate(m); err != nil {
			t.dropInvalid(to, m, err)
			continue
		}
		t.mu.Lock()
		if m.From != "" {
			t.learned[m.From] = c
		}
		h := t.handlers[to]
		if h == nil && len(t.handlers) == 1 {
			for _, only := range t.handlers {
				h = only
			}
		}
		t.mu.Unlock()
		if h == nil {
			t.dropped.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.dropped.Inc()
			}
			continue
		}
		t.dispatch(func() {
			t.delivered.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.delivered.Inc()
			}
			h(m)
		})
	}
}

// forgetConn drops a dead connection from every table and closes it.
func (t *NetTransport) forgetConn(c *Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	for addr, lc := range t.learned {
		if lc == c {
			delete(t.learned, addr)
		}
	}
	for addr, dc := range t.dialed {
		if dc == c {
			delete(t.dialed, addr)
		}
	}
	t.mu.Unlock()
	_ = c.Close()
}

func (t *NetTransport) dispatch(fn func()) {
	t.dmu.Lock()
	if t.ddone {
		t.dmu.Unlock()
		return
	}
	t.queue = append(t.queue, fn)
	t.dcond.Signal()
	t.dmu.Unlock()
}

func (t *NetTransport) dispatchLoop() {
	defer close(t.dexit)
	for {
		t.dmu.Lock()
		for len(t.queue) == 0 && !t.ddone {
			t.dcond.Wait()
		}
		if len(t.queue) == 0 {
			t.dmu.Unlock()
			return
		}
		fn := t.queue[0]
		t.queue = t.queue[1:]
		t.dmu.Unlock()
		fn()
	}
}

// Close shuts the node down: stops accepting, closes every connection,
// waits for read loops, then drains and stops the dispatcher.
func (t *NetTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	var err error
	if t.ln != nil {
		err = t.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	t.dmu.Lock()
	t.ddone = true
	t.dcond.Signal()
	t.dmu.Unlock()
	<-t.dexit
	return err
}
