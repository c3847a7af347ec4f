package msg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"softqos/internal/telemetry"
)

// tcpMetrics holds the TCP transport's pre-resolved metric handles,
// shared by every connection attached to the same registry.
type tcpMetrics struct {
	sent      *telemetry.Counter
	received  *telemetry.Counter
	sentBytes *telemetry.Counter
	recvBytes *telemetry.Counter
	byType    map[string]*telemetry.Counter
}

func newTCPMetrics(reg *telemetry.Registry) *tcpMetrics {
	m := &tcpMetrics{
		sent:      reg.Counter("msg.tcp.sent"),
		received:  reg.Counter("msg.tcp.received"),
		sentBytes: reg.Counter("msg.tcp.sent_bytes"),
		recvBytes: reg.Counter("msg.tcp.recv_bytes"),
		byType:    make(map[string]*telemetry.Counter, len(kindTags)),
	}
	for _, tag := range allTypeTags() {
		m.byType[tag] = reg.Counter("msg.tcp.sent." + tag)
	}
	return m
}

// Conn is a message connection over a net.Conn — the live-mode analogue
// of the prototype's management sockets. Both directions carry binary
// frames (see docs/WIRE.md).
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	mu sync.Mutex // serializes writes
	w  *bufio.Writer

	rbuf []byte // reader-goroutine scratch for frame payloads

	metrics atomic.Pointer[tcpMetrics]
}

// SetMetrics attaches the connection to a metrics registry (counters
// under "msg.tcp.*"). Safe to call concurrently with Send/Recv.
func (c *Conn) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		c.metrics.Store(nil)
		return
	}
	c.metrics.Store(newTCPMetrics(reg))
}

// NewConn wraps an established network connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// Dial connects to a message server at addr ("host:port").
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Send writes one message as a binary frame and flushes it. The frame
// is encoded into a pooled buffer, so the steady-state send path does
// not allocate.
func (c *Conn) Send(m Message) error {
	buf := getWireBuf()
	data, err := appendBinaryFrame((*buf)[:0], "", m)
	if err != nil {
		wireBufPool.Put(buf)
		return err
	}
	err = c.sendFrame(data)
	wire := len(data)
	putWireBuf(buf, data)
	if err != nil {
		return err
	}
	if tm := c.metrics.Load(); tm != nil {
		tm.sent.Inc()
		tm.sentBytes.Add(uint64(wire))
		if tag, err := typeTag(m.Body); err == nil {
			if ctr, ok := tm.byType[tag]; ok {
				ctr.Inc()
			}
		}
	}
	return nil
}

// Recv blocks for the next message. A stream that does not start a
// binary frame fails with ErrNotBinary; the caller should close the
// connection, since the stream cannot be resynced.
func (c *Conn) Recv() (Message, error) {
	frame, err := c.recvFrame()
	if err != nil {
		return Message{}, err
	}
	if tm := c.metrics.Load(); tm != nil {
		tm.received.Inc()
		tm.recvBytes.Add(uint64(frame.wire))
	}
	_, m, err := unmarshalBinaryPayload(frame.data)
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// wireFrame is one frame read off the stream: the payload plus the
// total wire bytes consumed including the header (for byte accounting).
type wireFrame struct {
	data []byte
	wire int
}

// sendFrame writes one pre-encoded frame and flushes it.
func (c *Conn) sendFrame(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(data); err != nil {
		return err
	}
	return c.w.Flush()
}

// recvFrame blocks for the next frame. Payloads are read into a
// per-connection scratch buffer reused across frames (the decoder
// copies everything it keeps), so the steady-state receive path does
// not allocate per frame. A missing magic or an unknown version leaves
// the stream unrecoverable (the next frame boundary is unknowable): the
// typed error tells the caller to drop the connection.
func (c *Conn) recvFrame() (wireFrame, error) {
	magic, err := c.r.ReadByte()
	if err != nil {
		return wireFrame{}, err
	}
	if magic != binMagic {
		return wireFrame{}, fmt.Errorf("%w: first byte %#x", ErrNotBinary, magic)
	}
	version, err := c.r.ReadByte()
	if err != nil {
		return wireFrame{}, err
	}
	if version != binVersion {
		return wireFrame{}, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return wireFrame{}, err
	}
	if n > MaxFrameBytes {
		return wireFrame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	header := 2 + uvarintLen(n)
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return wireFrame{}, err
	}
	return wireFrame{data: buf, wire: header + int(n)}, nil
}

// uvarintLen returns how many bytes binary.AppendUvarint uses for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Server accepts message connections and dispatches inbound messages to a
// handler. The handler may use the supplied connection to reply.
type Server struct {
	ln      net.Listener
	handler func(*Conn, Message)
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[*Conn]struct{}
	tm     *tcpMetrics
}

// SetMetrics attaches the server to a metrics registry: every current and
// future accepted connection records under "msg.tcp.*".
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	var tm *tcpMetrics
	if reg != nil {
		tm = newTCPMetrics(reg)
	}
	s.mu.Lock()
	s.tm = tm
	for c := range s.conns {
		c.metrics.Store(tm)
	}
	s.mu.Unlock()
}

// Serve starts a message server on addr (use "127.0.0.1:0" for an
// ephemeral port) dispatching each inbound message to handler, which runs
// on the connection's reader goroutine.
func Serve(addr string, handler func(*Conn, Message)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		c.metrics.Store(s.tm)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(c)
	}
}

func (s *Server) readLoop(c *Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		s.handler(c, m)
	}
}

// Close stops accepting, closes all connections and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
