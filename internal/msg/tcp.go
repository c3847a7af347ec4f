package msg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Conn is a message connection over a net.Conn — the live-mode analogue
// of the prototype's management sockets. Both directions carry binary
// frames (see docs/WIRE.md).
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	mu sync.Mutex // serializes writes
	w  *bufio.Writer

	rbuf []byte // reader-goroutine scratch for frame payloads
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
	putWireBuf(buf, data)
	return err
}

// Recv blocks for the next message. A stream that does not start a
// binary frame fails with ErrNotBinary; the caller should close the
// connection, since the stream cannot be resynced.
func (c *Conn) Recv() (Message, error) {
	frame, err := c.recvFrame()
	if err != nil {
		return Message{}, err
	}
	_, m, err := unmarshalBinaryPayload(frame)
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// sendFrame writes one pre-encoded frame and flushes it.
func (c *Conn) sendFrame(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(data); err != nil {
		return err
	}
	return c.w.Flush()
}

// recvFrame blocks for the next frame and returns its payload. Payloads
// are read into a per-connection scratch buffer reused across frames
// (the decoder copies everything it keeps), so the steady-state receive
// path does not allocate per frame. A missing magic or an unknown version leaves
// the stream unrecoverable (the next frame boundary is unknowable): the
// typed error tells the caller to drop the connection.
func (c *Conn) recvFrame() ([]byte, error) {
	magic, err := c.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if magic != binMagic {
		return nil, fmt.Errorf("%w: first byte %#x", ErrNotBinary, magic)
	}
	version, err := c.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != binVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
