package msg

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// The transport conformance suite: every Transport implementation —
// the in-simulation Bus and the live TCP NetTransport — must agree on
// the semantics the managers rely on: bound handlers receive exactly
// the messages sent to their address, per-type send counters are
// published under the transport's metric prefix, and sending to an
// address nobody bound is a visible error, not a silent drop.

// transportCase adapts one implementation to the suite. pump flushes
// in-flight deliveries (advances the virtual clock for the Bus, drains
// the dispatcher for the NetTransport).
type transportCase struct {
	name       string
	prefix     string // metric namespace: "msg.bus" or "msg.net"
	concurrent bool   // safe for concurrent Send (the Bus is sim-single-threaded)
	open       func(t *testing.T) (tr Transport, setMetrics func(*telemetry.Registry), pump func())
}

var transportCases = []transportCase{
	{
		name:   "bus",
		prefix: "msg.bus",
		open: func(t *testing.T) (Transport, func(*telemetry.Registry), func()) {
			s := sim.New(1)
			b := NewBus(s, time.Millisecond, 5*time.Millisecond)
			return b, b.SetMetrics, func() { s.RunFor(time.Second) }
		},
	},
	{
		name:       "net",
		prefix:     "msg.net",
		concurrent: true,
		open: func(t *testing.T) (Transport, func(*telemetry.Registry), func()) {
			nt, err := NewNetTransport("conf", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nt.Close() })
			return nt, nt.SetMetrics, func() { nt.Sync(func() {}) }
		},
	},
}

// oneOfEach returns one message of every management type (the full
// typeTags set).
func oneOfEach() []Message {
	id := Identity{Host: "h", PID: 1, Executable: "x"}
	return []Message{
		{From: "/h/src", Body: Register{ID: id}},
		{From: "/h/src", Body: PolicySet{}},
		{From: "/h/src", Body: Violation{ID: id, Policy: "P"}},
		{From: "/h/src", Body: Query{From: "/h/src", Keys: []string{"cpu_load"}, Ref: "q9"}},
		{From: "/h/src", Body: Report{Host: "h", Ref: "q9"}},
		{From: "/h/src", Body: Alarm{ID: id, Policy: "P"}},
		{From: "/h/src", Body: Directive{Action: "actuate", Target: "frame_skip"}},
		{From: "/h/src", Body: Ack{Ref: "register"}},
		{From: "/h/src", Body: TelemetrySummary{Tier: "host", Source: "/h/src", Seq: 1,
			Counters: map[string]float64{"fleet.alarms_raised": 1}}},
		{From: "/h/src", Body: PolicyDelta{Generation: 2, Prev: 1,
			Executable: "x", Scope: "fleet"}},
	}
}

func TestTransportConformance(t *testing.T) {
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("delivery", func(t *testing.T) {
				tr, _, pump := tc.open(t)
				var got []Message
				tr.Bind("/conf/sink", "conf", func(m Message) { got = append(got, m) })
				msgs := oneOfEach()
				for _, m := range msgs {
					if err := tr.Send("/conf/sink", m); err != nil {
						t.Fatalf("send %T: %v", m.Body, err)
					}
				}
				pump()
				if len(got) != len(msgs) {
					t.Fatalf("delivered %d of %d messages", len(got), len(msgs))
				}
				for i, m := range got {
					want, err := typeTag(msgs[i].Body)
					if err != nil {
						t.Fatal(err)
					}
					have, err := typeTag(m.Body)
					if err != nil {
						t.Fatal(err)
					}
					if have != want {
						t.Errorf("message %d: delivered %q, sent %q", i, have, want)
					}
					if m.From != "/h/src" {
						t.Errorf("message %d: From = %q", i, m.From)
					}
				}
			})

			t.Run("metrics", func(t *testing.T) {
				tr, setMetrics, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				tr.Bind("/conf/sink", "conf", func(Message) {})
				msgs := oneOfEach()
				for _, m := range msgs {
					if err := tr.Send("/conf/sink", m); err != nil {
						t.Fatal(err)
					}
				}
				pump()
				for _, tag := range typeTags {
					if n := reg.Counter(tc.prefix + ".sent." + tag).Value(); n != 1 {
						t.Errorf("%s.sent.%s = %d, want 1", tc.prefix, tag, n)
					}
				}
				if n := reg.Counter(tc.prefix + ".sent").Value(); n != uint64(len(msgs)) {
					t.Errorf("%s.sent = %d, want %d", tc.prefix, n, len(msgs))
				}
				if n := reg.Counter(tc.prefix + ".delivered").Value(); n != uint64(len(msgs)) {
					t.Errorf("%s.delivered = %d, want %d", tc.prefix, n, len(msgs))
				}
				if n := reg.Counter(tc.prefix + ".bytes").Value(); n == 0 {
					t.Errorf("%s.bytes = 0 after %d sends", tc.prefix, len(msgs))
				}
			})

			t.Run("unbound", func(t *testing.T) {
				tr, _, pump := tc.open(t)
				if tr.Bound("/conf/nobody") {
					t.Error("fresh transport claims /conf/nobody is bound")
				}
				if err := tr.Send("/conf/nobody", Message{Body: Ack{}}); err == nil {
					t.Error("send to unbound management address did not error")
				}
				tr.Bind("/conf/nobody", "conf", func(Message) {})
				if !tr.Bound("/conf/nobody") {
					t.Error("address not bound after Bind")
				}
				if err := tr.Send("/conf/nobody", Message{Body: Ack{}}); err != nil {
					t.Errorf("send to bound address: %v", err)
				}
				pump()
				tr.Unbind("/conf/nobody")
				if tr.Bound("/conf/nobody") {
					t.Error("address still bound after Unbind")
				}
				if err := tr.Send("/conf/nobody", Message{Body: Ack{}}); err == nil {
					t.Error("send after Unbind did not error")
				}
			})

			t.Run("invalid", func(t *testing.T) {
				tr, setMetrics, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				delivered := 0
				tr.Bind("/conf/sink", "conf", func(Message) { delivered++ })
				bad := []Message{
					{From: "/h/src", Body: Violation{Policy: "P"}},          // PID 0
					{From: "/h/src", Body: Violation{ID: Identity{PID: 4}}}, // no policy
					{From: "/h/src", Body: Alarm{ID: Identity{PID: 4}}},     // no policy
					{From: "/h/src", Body: Query{From: "/h/src", Ref: "q"}}, // no keys
					{From: "/h/src", Body: Directive{Target: "frame_skip"}}, // no action
				}
				for i, m := range bad {
					if err := tr.Send("/conf/sink", m); err == nil {
						t.Errorf("message %d (%T): invalid send did not error", i, m.Body)
					}
				}
				pump()
				if delivered != 0 {
					t.Errorf("handler received %d invalid messages", delivered)
				}
				if n := reg.Counter(tc.prefix + ".dropped_invalid").Value(); n != uint64(len(bad)) {
					t.Errorf("%s.dropped_invalid = %d, want %d", tc.prefix, n, len(bad))
				}
				// A valid message still goes through afterwards.
				if err := tr.Send("/conf/sink", Message{From: "/h/src", Body: Ack{}}); err != nil {
					t.Errorf("valid send after drops: %v", err)
				}
				pump()
				if delivered != 1 {
					t.Errorf("valid message not delivered after drops (delivered=%d)", delivered)
				}
			})

			t.Run("oversize", func(t *testing.T) {
				tr, setMetrics, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				delivered := 0
				tr.Bind("/conf/sink", "conf", func(Message) { delivered++ })
				err := tr.Send("/conf/sink", bigPolicySet(MaxFrameBytes))
				var se *SendError
				if !errors.As(err, &se) || se.Kind != ErrInvalid || !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("oversize send = %v, want SendError{Kind: invalid} wrapping ErrFrameTooBig", err)
				}
				pump()
				if delivered != 0 {
					t.Errorf("handler received %d oversize messages", delivered)
				}
				for _, name := range []string{".sent", ".bytes"} {
					if n := reg.Counter(tc.prefix + name).Value(); n != 0 {
						t.Errorf("%s%s = %d after a refused send", tc.prefix, name, n)
					}
				}
				if err := tr.Send("/conf/sink", Message{From: "/h/src", Body: Ack{}}); err != nil {
					t.Errorf("valid send after the refusal: %v", err)
				}
				pump()
				if delivered != 1 {
					t.Errorf("valid message not delivered after the refusal (delivered=%d)", delivered)
				}
			})

			t.Run("trace-context", func(t *testing.T) {
				tr, _, pump := tc.open(t)
				ctx := telemetry.TraceContext{TraceID: "/h/app/x/1#42", Span: 3}
				var got []Message
				tr.Bind("/conf/sink", "conf", func(m Message) { got = append(got, m) })
				withCtx := Message{From: "/h/src", Trace: ctx,
					Body: Violation{ID: Identity{Host: "h", PID: 1, Executable: "x"}, Policy: "P"}}
				without := Message{From: "/h/src", Body: Ack{Ref: "r"}}
				if err := tr.Send("/conf/sink", withCtx); err != nil {
					t.Fatal(err)
				}
				if err := tr.Send("/conf/sink", without); err != nil {
					t.Fatal(err)
				}
				pump()
				if len(got) != 2 {
					t.Fatalf("delivered %d of 2", len(got))
				}
				if got[0].Trace != ctx {
					t.Errorf("context not carried: got %+v, sent %+v", got[0].Trace, ctx)
				}
				if got[1].Trace.Valid() {
					t.Errorf("context invented on context-free message: %+v", got[1].Trace)
				}
				// The wire encoding itself must be transport-independent:
				// both transports move the same marshaled frame, so the
				// context round-trips through it, and a message without a
				// context carries none.
				b1, err := MarshalWire("/conf/sink", withCtx)
				if err != nil {
					t.Fatal(err)
				}
				to, rt, err := UnmarshalWire(b1)
				if err != nil {
					t.Fatal(err)
				}
				if to != "/conf/sink" || rt.Trace != ctx {
					t.Errorf("round-trip: to=%q trace=%+v", to, rt.Trace)
				}
				stripped := withCtx
				stripped.Trace = telemetry.TraceContext{}
				b2, err := MarshalWire("/conf/sink", stripped)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(b2, []byte(ctx.TraceID)) {
					t.Errorf("context-free frame carries the trace ID: %x", b2)
				}
				if _, rt2, err := UnmarshalWire(b2); err != nil || rt2.Trace.Valid() {
					t.Errorf("context-free frame decoded with trace %+v (err %v)", rt2.Trace, err)
				}
			})

			t.Run("concurrent", func(t *testing.T) {
				if !tc.concurrent {
					t.Skip("transport is single-threaded by design (driven by the simulator loop)")
				}
				tr, setMetrics, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				var mu sync.Mutex
				perSender := make(map[string]int)
				tr.Bind("/conf/sink", "conf", func(m Message) {
					mu.Lock()
					perSender[m.From]++
					mu.Unlock()
				})
				const senders, each = 8, 50
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						from := fmt.Sprintf("/conf/sender-%d", s)
						for i := 0; i < each; i++ {
							if err := tr.Send("/conf/sink", Message{From: from,
								Body: Report{Ref: fmt.Sprintf("r%d", i)}}); err != nil {
								t.Errorf("sender %d: %v", s, err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				pump()
				mu.Lock()
				defer mu.Unlock()
				for s := 0; s < senders; s++ {
					from := fmt.Sprintf("/conf/sender-%d", s)
					if perSender[from] != each {
						t.Errorf("sender %d: delivered %d of %d", s, perSender[from], each)
					}
				}
				if n := reg.Counter(tc.prefix + ".delivered").Value(); n != senders*each {
					t.Errorf("delivered counter = %d, want %d", n, senders*each)
				}
			})
		})
	}
}
