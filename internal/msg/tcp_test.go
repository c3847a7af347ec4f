package msg

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// connServer accepts message connections on a loopback port and runs a
// handler for every inbound message on the connection's reader
// goroutine; the handler may reply on the connection.
type connServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  []*Conn
}

// serveConns starts a connServer that is closed when the test ends.
func serveConns(t *testing.T, handler func(*Conn, Message)) *connServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &connServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
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
			s.conns = append(s.conns, c)
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					handler(c, m)
				}
			}()
		}
	}()
	t.Cleanup(s.Close)
	return s
}

func (s *connServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection and waits for the
// reader goroutines to exit.
func (s *connServer) Close() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// echoServer starts a loopback server that echoes every message verbatim.
func echoServer(t *testing.T) (*connServer, *Conn) {
	t.Helper()
	srv := serveConns(t, func(c *Conn, m Message) { _ = c.Send(m) })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return srv, c
}

func TestTCPLoopbackAllMessageTypes(t *testing.T) {
	_, c := echoServer(t)
	id := Identity{Host: "client-host", PID: 77, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "physician"}
	bodies := []any{
		Register{ID: id, Sensors: []string{"fps_sensor"}},
		PolicySet{ID: id, Policies: []PolicySpec{{
			Name: "P", Connective: "and",
			Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23}},
			Actions:    []ActionSpec{{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}}},
		}}},
		Violation{ID: id, Policy: "P", Readings: map[string]float64{"frame_rate": 12}},
		Query{From: "/domain", Keys: []string{"cpu_load"}, Ref: "q1"},
		Report{Host: "server-host", Values: map[string]float64{"cpu_load": 4.2}, Ref: "q1"},
		Alarm{ID: id, Policy: "P", Suspect: "remote", Readings: map[string]float64{"buffer_size": 0}},
		Directive{From: "/domain", Action: "boost_cpu", Target: "mpeg_serve", Amount: 10},
		Ack{Ref: "d1", OK: true, Err: "detail"},
		Nack{ID: id, Ref: "register", Reason: "repository down"},
		Heartbeat{ID: id, Seq: 9},
		AlarmBatch{Tier: "host", Alarms: []BatchedAlarm{{Alarm: Alarm{ID: id, Policy: "P",
			Suspect: "remote", Readings: map[string]float64{"frame_rate": 12}}, Count: 3, Severity: 1}},
			Summary: map[string]float64{"domain_saturation": 0.5}},
		TelemetrySummary{Tier: "host", Source: "/client-host/QoSHostManager", Seq: 4, Hosts: 1,
			Counters: map[string]float64{"fleet.alarms_raised": 2}},
		PolicyDelta{Generation: 3, Prev: 2, Executable: "mpeg_play", Scope: "canary",
			Hosts: []string{"client-host"}, Reason: "canary start"},
	}
	if len(bodies) != len(allTypeTags()) {
		t.Fatalf("test covers %d body types, transport has %d", len(bodies), len(allTypeTags()))
	}
	for _, body := range bodies {
		in := Message{From: "/test/sender", Body: body}
		if err := c.Send(in); err != nil {
			t.Fatalf("send %T: %v", body, err)
		}
		out, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", body, err)
		}
		if out.From != in.From {
			t.Errorf("%T: from = %q", body, out.From)
		}
		got := reflect.ValueOf(out.Body).Elem().Interface()
		if !reflect.DeepEqual(got, body) {
			t.Errorf("%T loopback:\n got %+v\nwant %+v", body, got, body)
		}
	}
}

func TestTCPConcurrentSendersOneConn(t *testing.T) {
	const senders, perSender = 8, 25
	received := make(chan string, senders*perSender)
	srv := serveConns(t, func(_ *Conn, m Message) {
		a, ok := m.Body.(*Ack)
		if !ok {
			received <- fmt.Sprintf("corrupt body %T", m.Body)
			return
		}
		received <- a.Ref
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				ref := fmt.Sprintf("s%d-%d", i, j)
				if err := c.Send(Message{From: "/c", Body: Ack{Ref: ref, OK: true}}); err != nil {
					received <- "send error: " + err.Error()
					return
				}
			}
		}(i)
	}
	wg.Wait()

	want := make(map[string]bool, senders*perSender)
	for i := 0; i < senders; i++ {
		for j := 0; j < perSender; j++ {
			want[fmt.Sprintf("s%d-%d", i, j)] = true
		}
	}
	for n := 0; n < senders*perSender; n++ {
		select {
		case ref := <-received:
			if !want[ref] {
				t.Fatalf("message %d: unexpected or duplicate %q", n, ref)
			}
			delete(want, ref)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d messages arrived; missing e.g. %v", n, senders*perSender, firstKey(want))
		}
	}
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

func TestTCPRecvErrorOnPeerClose(t *testing.T) {
	// Server hangs up as soon as the first message arrives; the client's
	// blocked Recv must fail rather than hang.
	srv := serveConns(t, func(c *Conn, _ Message) { _ = c.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(Message{From: "/c", Body: Ack{Ref: "bye"}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after peer close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked by peer close")
	}
}
