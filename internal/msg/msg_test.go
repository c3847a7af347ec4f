package msg

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"softqos/internal/sim"
)

func TestMarshalRoundTripAllTypes(t *testing.T) {
	id := Identity{Host: "client-host", PID: 1234, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "physician"}
	bodies := []any{
		Register{ID: id, Sensors: []string{"fps_sensor", "jitter_sensor"}},
		PolicySet{ID: id, Policies: []PolicySpec{{
			Name:       "NotifyQoSViolation",
			Connective: "and",
			Conditions: []CondSpec{
				{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23},
				{Attribute: "frame_rate", Sensor: "fps_sensor", Op: "<", Value: 27},
			},
			Actions: []ActionSpec{{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}}},
		}}},
		Violation{ID: id, Policy: "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 14.5, "buffer_size": 12}},
		Query{From: "/domain", Keys: []string{"cpu_load", "mem_usage"}, Ref: "q1"},
		Report{Host: "server-host", Values: map[string]float64{"cpu_load": 9.7}, Ref: "q1"},
		Alarm{ID: id, Policy: "NotifyQoSViolation", Suspect: "remote",
			Readings: map[string]float64{"buffer_size": 0}},
		Directive{From: "/domain", Action: "boost_cpu", Target: "mpeg_serve", Amount: 10},
		Ack{Ref: "d1", OK: true},
	}
	for _, body := range bodies {
		in := Message{From: "/test/sender", Body: body}
		data, err := MarshalWire("", in)
		if err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
		to, out, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", body, err)
		}
		if to != "" {
			t.Errorf("%T: to = %q, want empty", body, to)
		}
		if out.From != in.From {
			t.Errorf("%T: from = %q", body, out.From)
		}
		// UnmarshalWire yields a pointer to the concrete type.
		got := reflect.ValueOf(out.Body).Elem().Interface()
		if !reflect.DeepEqual(got, body) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", body, got, body)
		}
	}
}

func TestMarshalUnknownTypeFails(t *testing.T) {
	if _, err := MarshalWire("", Message{Body: 42}); err == nil {
		t.Fatal("marshalling unknown body type succeeded")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		want error
	}{
		{[]byte("not json"), ErrNotBinary},
		{[]byte(`{"type":"register","body":{}}`), ErrNotBinary},
		{[]byte{binMagic, binVersion, 4, 99, 0, 0, 0}, ErrBadKind},
		{[]byte{binMagic, binVersion, 3, kindRegister, 0, 0}, ErrTruncated},
	} {
		if _, _, err := UnmarshalWire(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("UnmarshalWire(%q) = %v, want %v", tc.data, err, tc.want)
		}
	}
}

func TestIdentityAddress(t *testing.T) {
	id := Identity{Host: "h1", PID: 42, Executable: "exe", Application: "App"}
	if got := id.Address(); got != "/h1/App/exe/42" {
		t.Errorf("Address = %q", got)
	}
}

func TestBusLocalVsRemoteLatency(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, 100*time.Microsecond, 5*time.Millisecond)
	var localAt, remoteAt sim.Time
	b.Bind("/h1/coord", "h1", func(Message) {})
	b.Bind("/h1/mgr", "h1", func(Message) { localAt = s.Now() })
	b.Bind("/h2/mgr", "h2", func(Message) { remoteAt = s.Now() })

	from := Message{From: "/h1/coord", Body: Ack{Ref: "x", OK: true}}
	if err := b.Send("/h1/mgr", from); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("/h2/mgr", from); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if localAt != sim.At(100*time.Microsecond) {
		t.Errorf("local delivery at %v, want 100µs", localAt)
	}
	if remoteAt != sim.At(5*time.Millisecond) {
		t.Errorf("remote delivery at %v, want 5ms", remoteAt)
	}
}

// TestBusSendToUnboundFails pins the failure kind too: a never-bound or
// unbound address fails as a non-retryable ErrNoRoute, the same kind the
// TCP transport reports for a peer whose connection has closed.
func TestBusSendToUnboundFails(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Microsecond, time.Millisecond)
	b.Bind("/gone", "h", func(Message) {})
	b.Unbind("/gone")
	for _, addr := range []string{"/nobody", "/gone"} {
		err := b.Send(addr, Message{Body: Ack{}})
		if err == nil {
			t.Fatalf("send to unbound %s succeeded", addr)
		}
		var se *SendError
		if !errors.As(err, &se) || se.Kind != ErrNoRoute || se.To != addr || se.Retryable() {
			t.Errorf("send to %s: err = %v, want non-retryable %s", addr, err, ErrNoRoute)
		}
	}
	if b.Sent != 0 {
		t.Errorf("Sent = %d, want 0", b.Sent)
	}
}

func TestBusUnbindDropsInFlight(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, time.Millisecond)
	delivered := false
	b.Bind("/mgr", "h", func(Message) { delivered = true })
	if err := b.Send("/mgr", Message{From: "/x", Body: Ack{}}); err != nil {
		t.Fatal(err)
	}
	b.Unbind("/mgr")
	s.Run()
	if delivered {
		t.Fatal("message delivered to unbound handler")
	}
	if b.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", b.Dropped)
	}

	// Interleaved local (1ms) and remote (3ms) sends, then an
	// Unbind→Bind at 2ms while both classes are in flight: the local
	// ones fall due while unbound and drop; the remote ones, and sends
	// made after the rebind, reach the new handler in per-class send
	// order.
	s = sim.New(1)
	b = NewBus(s, time.Millisecond, 3*time.Millisecond)
	var got []string
	b.Bind("/near", "h", func(Message) {})
	b.Bind("/far", "h2", func(Message) {})
	b.Bind("/mgr", "h", func(m Message) { got = append(got, "old:"+m.Body.(Ack).Ref) })
	send := func(from, ref string) {
		t.Helper()
		if err := b.Send("/mgr", Message{From: from, Body: Ack{Ref: ref}}); err != nil {
			t.Fatal(err)
		}
	}
	send("/near", "L1")
	send("/far", "R1")
	send("/near", "L2")
	send("/far", "R2")
	b.Unbind("/mgr")
	s.After(2*time.Millisecond, func() {
		b.Bind("/mgr", "h", func(m Message) { got = append(got, fmt.Sprintf("new:%s@%v", m.Body.(Ack).Ref, s.Now())) })
		send("/far", "R3")
		send("/near", "L3")
	})
	s.Run()
	want := []string{"new:R1@3ms", "new:R2@3ms", "new:L3@3ms", "new:R3@5ms"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
	if b.Dropped != 2 || b.Delivered != 4 || b.Sent != 6 {
		t.Errorf("Sent/Delivered/Dropped = %d/%d/%d, want 6/4/2", b.Sent, b.Delivered, b.Dropped)
	}
}

func TestBusRebindReplacesHandler(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, time.Millisecond)
	got := ""
	b.Bind("/mgr", "h", func(Message) { got = "old" })
	b.Bind("/mgr", "h", func(Message) { got = "new" })
	_ = b.Send("/mgr", Message{From: "/x", Body: Ack{}})
	s.Run()
	if got != "new" {
		t.Errorf("handler = %q, want new", got)
	}

	// A rebind while local and remote messages are in flight hands every
	// one still undelivered to the new handler, each class in send order.
	s = sim.New(1)
	b = NewBus(s, time.Millisecond, 2*time.Millisecond)
	var log []string
	handler := func(name string) BusHandler {
		return func(m Message) { log = append(log, fmt.Sprintf("%s:%s@%v", name, m.Body.(Ack).Ref, s.Now())) }
	}
	b.Bind("/near", "h", func(Message) {})
	b.Bind("/far", "h2", func(Message) {})
	b.Bind("/mgr", "h", handler("old"))
	for i, from := range []string{"/far", "/near", "/far", "/near"} {
		if err := b.Send("/mgr", Message{From: from, Body: Ack{Ref: fmt.Sprint(from[1:], i)}}); err != nil {
			t.Fatal(err)
		}
	}
	s.After(time.Millisecond+time.Microsecond, func() { b.Bind("/mgr", "h", handler("new")) })
	s.Run()
	want := []string{"old:near1@1ms", "old:near3@1ms", "new:far0@2ms", "new:far2@2ms"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deliveries = %v, want %v", log, want)
	}
	if b.Dropped != 0 || b.Delivered != 4 {
		t.Errorf("Delivered/Dropped = %d/%d, want 4/0", b.Delivered, b.Dropped)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	echo := func(c *Conn, m Message) {
		if q, ok := m.Body.(*Query); ok {
			_ = c.Send(Message{From: "/server", Body: Report{
				Host: "server-host", Values: map[string]float64{"cpu_load": 3.5}, Ref: q.Ref}})
		}
	}
	srv := serveConns(t, echo)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(Message{From: "/client", Body: Query{Keys: []string{"cpu_load"}, Ref: "r7"}}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reply.Body.(*Report)
	if !ok {
		t.Fatalf("reply body %T", reply.Body)
	}
	if rep.Ref != "r7" || rep.Values["cpu_load"] != 3.5 {
		t.Errorf("reply = %+v", rep)
	}
}

func TestTCPMultipleMessagesOneConn(t *testing.T) {
	srv := serveConns(t, func(c *Conn, m Message) {
		_ = c.Send(m) // echo verbatim
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		ref := string(rune('a' + i%26))
		if err := c.Send(Message{From: "/c", Body: Ack{Ref: ref, OK: true}}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Body.(*Ack).Ref != ref {
			t.Fatalf("echo %d: got %q want %q", i, got.Body.(*Ack).Ref, ref)
		}
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := serveConns(t, func(c *Conn, m Message) { _ = c.Send(m) })
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		ref := string(rune('A' + i))
		go func() {
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Send(Message{From: "/c", Body: Ack{Ref: ref, OK: true}}); err != nil {
					errs <- err
					return
				}
				got, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if got.Body.(*Ack).Ref != ref {
					errs <- fmt.Errorf("cross-talk: got %q want %q", got.Body.(*Ack).Ref, ref)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv := serveConns(t, func(*Conn, Message) {})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client Recv not unblocked by server close")
	}
}
