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
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
		out, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", body, err)
		}
		if out.From != in.From {
			t.Errorf("%T: from = %q", body, out.From)
		}
		// Unmarshal yields a pointer to the concrete type.
		got := reflect.ValueOf(out.Body).Elem().Interface()
		if !reflect.DeepEqual(got, body) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", body, got, body)
		}
	}
}

func TestMarshalUnknownTypeFails(t *testing.T) {
	if _, err := Marshal(Message{Body: 42}); err == nil {
		t.Fatal("marshalling unknown body type succeeded")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"type":"nope","body":{}}`,
		`{"type":"register","body":"not-an-object"}`,
	} {
		if _, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("Unmarshal(%q) succeeded", bad)
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
}

func TestTCPTransportRoundTrip(t *testing.T) {
	echo := func(c *Conn, m Message) {
		if q, ok := m.Body.(*Query); ok {
			_ = c.Send(Message{From: "/server", Body: Report{
				Host: "server-host", Values: map[string]float64{"cpu_load": 3.5}, Ref: q.Ref}})
		}
	}
	srv, err := Serve("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

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
	srv, err := Serve("127.0.0.1:0", func(c *Conn, m Message) {
		_ = c.Send(m) // echo verbatim
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
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
	srv, err := Serve("127.0.0.1:0", func(c *Conn, m Message) { _ = c.Send(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
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
	srv, err := Serve("127.0.0.1:0", func(*Conn, Message) {})
	if err != nil {
		t.Fatal(err)
	}
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
	_ = srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client Recv not unblocked by server close")
	}
}
