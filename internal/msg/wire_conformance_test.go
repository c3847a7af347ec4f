package msg

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Wire conformance: every transport writes and reads the one binary
// frame format, and the management plane's semantics — delivery,
// routing, trace context, validation, byte accounting — hold over it.
// A peer that writes anything else is cut off, never half-parsed.

// openWirePair starts two connected NetTransports with a route from
// each to the other.
func openWirePair(t *testing.T) (sender, receiver *NetTransport) {
	t.Helper()
	sender, err := NewNetTransport("hostA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	receiver, err = NewNetTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { receiver.Close() })
	sender.Route("/hostB/sink", receiver.Addr())
	receiver.Route("/hostA/reply", sender.Addr())
	return sender, receiver
}

// pumpUntil spins the two dispatchers until cond holds or the deadline
// passes (deliveries ride the receiver's reader goroutine, so there is
// no single queue to drain deterministically).
func pumpUntil(t *testing.T, sender, receiver *NetTransport, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := false
		receiver.Sync(func() { sender.Sync(func() { ok = cond() }) })
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// allKinds returns one valid message of each of the 13 message kinds.
func allKinds() []Message {
	id := Identity{Host: "h", PID: 1, Executable: "x"}
	return append(oneOfEach(),
		Message{From: "/h/src", Body: Nack{ID: id, Ref: "register", Reason: "down"}},
		Message{From: "/h/src", Body: Heartbeat{ID: id, Seq: 1}},
		Message{From: "/h/src", Body: AlarmBatch{Tier: "host",
			Summary: map[string]float64{"domain_saturation": 0.5}}})
}

// TestWireFormatConformance: two NetTransport nodes carry every message
// kind, including a traced one, with routing and trace context intact,
// on a fresh connection and again on the settled one.
func TestWireFormatConformance(t *testing.T) {
	t.Run("binary-to-binary", func(t *testing.T) {
		sender, receiver := openWirePair(t)
		var got []Message
		receiver.Sync(func() {}) // dispatcher up
		receiver.Bind("/hostB/sink", "hostB", func(m Message) {
			receiver.Do(func() { got = append(got, m) })
		})

		msgs := allKinds()
		msgs = append(msgs, Message{From: "/hostA/src",
			Trace: telemetry.TraceContext{TraceID: "/hostA/src#9", Span: 2},
			Body:  Violation{ID: Identity{Host: "hostA", PID: 7, Executable: "x"}, Policy: "P"}})
		for round := 0; round < 2; round++ {
			for _, m := range msgs {
				if err := sender.Send("/hostB/sink", m); err != nil {
					t.Fatalf("round %d send %T: %v", round, m.Body, err)
				}
			}
		}
		want := 2 * len(msgs)
		pumpUntil(t, sender, receiver, func() bool { return len(got) == want })

		for i, m := range got {
			ref := msgs[i%len(msgs)]
			wantTag, _ := typeTag(ref.Body)
			haveTag, err := typeTag(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			if haveTag != wantTag {
				t.Errorf("message %d: delivered %q, sent %q", i, haveTag, wantTag)
			}
			if m.From != ref.From {
				t.Errorf("message %d: From = %q, want %q", i, m.From, ref.From)
			}
			if m.Trace != ref.Trace {
				t.Errorf("message %d: trace = %+v, want %+v", i, m.Trace, ref.Trace)
			}
		}

		// An invalid message is rejected before any frame is cut.
		if err := sender.Send("/hostB/sink", Message{From: "/hostA/src",
			Body: Violation{Policy: "P"}}); err == nil {
			t.Error("invalid message accepted")
		}
	})
}

// TestBusWireFormats: the Bus models each send as the frame it would
// cost on a socket — msg.bus.bytes is exactly the sum of the frame
// lengths, with the trace context stripped so tracing never moves it.
func TestBusWireFormats(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, 5*time.Millisecond)
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	b.SetMetrics(reg)
	delivered := 0
	// The short and the 200-byte address, and the trace contexts below,
	// move the real frame's length prefix across a uvarint width while
	// the accounted length must not move at all.
	addrs := []string{"/conf/sink", "/conf/" + strings.Repeat("s", 200)}
	for _, addr := range addrs {
		b.Bind(addr, "conf", func(Message) { delivered++ })
	}
	msgs := allKinds()
	id := Identity{Host: "h", PID: 1, Executable: "x"}
	for _, tc := range []telemetry.TraceContext{
		{TraceID: "/h/src#3", Span: 1},
		{TraceID: strings.Repeat("t", 300), Span: 1 << 40},
	} {
		msgs = append(msgs, Message{From: "/h/src", Trace: tc,
			Body: Violation{ID: id, Policy: "P"}})
		msgs = append(msgs, Message{From: "/h/src", Trace: tc,
			Body: Report{Host: "h", Ref: strings.Repeat("r", 100)}})
	}
	var want uint64
	for _, addr := range addrs {
		for _, m := range msgs {
			if err := b.Send(addr, m); err != nil {
				t.Fatal(err)
			}
			untraced := m
			untraced.Trace = telemetry.TraceContext{}
			frame, err := MarshalWire("", untraced)
			if err != nil {
				t.Fatal(err)
			}
			want += uint64(len(frame))
		}
	}
	s.RunFor(time.Second)
	if delivered != len(addrs)*len(msgs) {
		t.Errorf("delivered %d of %d", delivered, len(addrs)*len(msgs))
	}
	if got := reg.Counter("msg.bus.bytes").Value(); got != want {
		t.Errorf("msg.bus.bytes = %d, want %d (sum of unaddressed, untraced frame lengths)", got, want)
	}
}

// TestConnWireFormats: the point-to-point Conn carries every kind, and
// the routed transport's msg.net.bytes is exactly the sum of the frame
// lengths on the wire.
func TestConnWireFormats(t *testing.T) {
	recv := make(chan Message, 64)
	srv := serveConns(t, func(_ *Conn, m Message) { recv <- m })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sent := allKinds()
	for i, m := range sent {
		if err := c.Send(m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i, want := range sent {
		select {
		case got := <-recv:
			assertSameMessage(t, i, want, got)
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}

	sender, receiver := openWirePair(t)
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	sender.SetMetrics(reg)
	delivered := 0
	receiver.Bind("/hostB/sink", "hostB", func(Message) { receiver.Do(func() { delivered++ }) })
	var wire uint64
	for _, m := range sent {
		if err := sender.Send("/hostB/sink", m); err != nil {
			t.Fatalf("send %T: %v", m.Body, err)
		}
		frame, err := MarshalWire("/hostB/sink", m)
		if err != nil {
			t.Fatal(err)
		}
		wire += uint64(len(frame))
	}
	pumpUntil(t, sender, receiver, func() bool { return delivered == len(sent) })
	if got := reg.Counter("msg.net.bytes").Value(); got != wire {
		t.Errorf("msg.net.bytes = %d, want %d", got, wire)
	}
}

// TestNetPerTypeCounters: every message kind sent over TCP is counted
// under its own msg.net.sent.<tag>, and the per-type counters add up to
// msg.net.sent.
func TestNetPerTypeCounters(t *testing.T) {
	sender, receiver := openWirePair(t)
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	sender.SetMetrics(reg)
	delivered := 0
	receiver.Bind("/hostB/sink", "hostB", func(Message) { receiver.Do(func() { delivered++ }) })
	msgs := allKinds()
	if len(msgs) != len(allTypeTags()) {
		t.Fatalf("test sends %d kinds, codec has %d", len(msgs), len(allTypeTags()))
	}
	for _, m := range msgs {
		if err := sender.Send("/hostB/sink", m); err != nil {
			t.Fatalf("send %T: %v", m.Body, err)
		}
	}
	pumpUntil(t, sender, receiver, func() bool { return delivered == len(msgs) })
	var sum uint64
	for _, tag := range allTypeTags() {
		n := reg.Counter("msg.net.sent." + tag).Value()
		if n != 1 {
			t.Errorf("msg.net.sent.%s = %d, want 1", tag, n)
		}
		sum += n
	}
	if total := reg.Counter("msg.net.sent").Value(); sum != total {
		t.Errorf("per-type counters sum to %d, msg.net.sent = %d", sum, total)
	}
}

// TestNetOversizeFrameRefused: a message whose frame would exceed
// MaxFrameBytes fails at once as a non-retryable invalid send, without
// touching the connection, so the next normal send on the same route
// still arrives.
func TestNetOversizeFrameRefused(t *testing.T) {
	sender, receiver := openWirePair(t)
	var got []Message
	receiver.Bind("/hostB/sink", "hostB", func(m Message) { receiver.Do(func() { got = append(got, m) }) })
	ack := Message{From: "/hostA/src", Body: Ack{Ref: "before"}}
	if err := sender.Send("/hostB/sink", ack); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, sender, receiver, func() bool { return len(got) == 1 })

	err := sender.Send("/hostB/sink", bigPolicySet(MaxFrameBytes))
	var se *SendError
	if !errors.As(err, &se) || se.Kind != ErrInvalid || !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize send = %v, want SendError{Kind: invalid} wrapping ErrFrameTooBig", err)
	}
	if se.Retryable() {
		t.Error("oversize send classified retryable")
	}
	if retries, _, failed := sender.Resilience(); retries != 0 || failed != 1 {
		t.Errorf("retries = %d, send_failed = %d; want 0 and 1", retries, failed)
	}

	ack.Body = Ack{Ref: "after"}
	if err := sender.Send("/hostB/sink", ack); err != nil {
		t.Fatalf("send after oversize refusal: %v", err)
	}
	pumpUntil(t, sender, receiver, func() bool { return len(got) == 2 })
	if a, ok := got[1].Body.(*Ack); !ok || a.Ref != "after" {
		t.Errorf("second delivery = %#v, want the follow-up ack", got[1].Body)
	}
	if _, reconnects, _ := sender.Resilience(); reconnects != 0 {
		t.Errorf("reconnects = %d: the refusal cost the connection", reconnects)
	}
}

// TestNetNotBinaryStream: a raw client that writes a JSON line to a
// NetTransport port gets its connection closed with nothing dispatched
// (counted as a drop and logged as msg/stream_rejected), while a binary
// peer connected at the same time keeps working.
func TestNetNotBinaryStream(t *testing.T) {
	sender, receiver := openWirePair(t)
	lg := eventlog.New(func() time.Duration { return 0 }, 64)
	receiver.SetEventLog(lg)
	var got []Message
	receiver.Bind("/hostB/sink", "hostB", func(m Message) { receiver.Do(func() { got = append(got, m) }) })
	if err := sender.Send("/hostB/sink", Message{From: "/hostA/src", Body: Ack{Ref: "one"}}); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, sender, receiver, func() bool { return len(got) == 1 })

	raw, err := net.Dial("tcp", receiver.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte(`{"from":"/raw","to":"/hostB/sink","type":"ack","body":{"ref":"json"}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := raw.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("raw JSON connection still open: read %d bytes, err %v", n, err)
	}
	// The rejected stream leaves a trace: one drop and one warn record.
	if _, _, dropped := receiver.Stats(); dropped != 1 {
		t.Errorf("dropped = %d after one rejected stream, want 1", dropped)
	}
	rejected := 0
	for _, r := range lg.Records(eventlog.Query{Component: "msg"}) {
		if r.Code == "stream_rejected" {
			rejected++
			if r.Level != eventlog.Warn || !strings.Contains(r.FieldString("error"), ErrNotBinary.Error()) {
				t.Errorf("stream_rejected record: level %v, error %q", r.Level, r.FieldString("error"))
			}
		}
	}
	if rejected != 1 {
		t.Errorf("%d stream_rejected records, want 1", rejected)
	}

	if err := sender.Send("/hostB/sink", Message{From: "/hostA/src", Body: Ack{Ref: "two"}}); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, sender, receiver, func() bool { return len(got) == 2 })
	for i, m := range got {
		if m.From != "/hostA/src" {
			t.Errorf("delivery %d came from %q: a non-binary stream was dispatched", i, m.From)
		}
	}
}

// TestConnRecvNotBinary: Conn.Recv on a stream that does not open with
// the frame magic fails with ErrNotBinary at once, without waiting for
// a newline or any further bytes.
func TestConnRecvNotBinary(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { _, _ = b.Write([]byte(`{"from":"/raw","type":"ack","body":{}}`)) }()
	c := NewConn(a)
	if _, err := c.Recv(); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("Recv on a JSON stream = %v, want ErrNotBinary", err)
	}
}
