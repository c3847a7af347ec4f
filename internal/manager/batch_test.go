package manager

import (
	"bytes"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

func batchAlarm(host string, pid int, fps float64) msg.Alarm {
	return msg.Alarm{
		ID: msg.Identity{Host: host, PID: pid, Executable: "mpeg_play",
			Application: "VideoApplication"},
		Policy:   "NotifyQoSViolation",
		Readings: map[string]float64{"fps": fps},
	}
}

// TestCoalescerWindowOnInjectedClock drives the flush window on a
// simulation clock: alarms added inside one window merge per key and
// ship as a single batch exactly when the window timer fires — never
// earlier, never per-alarm.
func TestCoalescerWindowOnInjectedClock(t *testing.T) {
	s := sim.New(1)
	var at []time.Duration
	var batches []msg.AlarmBatch
	send := func(to string, m msg.Message) error {
		at = append(at, s.Now().Duration())
		batches = append(batches, m.Body.(msg.AlarmBatch))
		return nil
	}
	c := NewAlarmCoalescer("domain", "/d", "/region", send, 2*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) })
	c.Summarize = func() map[string]float64 {
		return map[string]float64{"domain_saturation": 0.25}
	}

	// Three alarms for the same (subject, policy) inside the window, one
	// for a different host.
	s.Schedule(sim.Time(0), func() { _ = c.Add(batchAlarm("h1", 7, 12), 1) })
	s.Schedule(sim.Time(500*time.Millisecond), func() { _ = c.Add(batchAlarm("h1", 7, 9), 1) })
	s.Schedule(sim.Time(900*time.Millisecond), func() { _ = c.Add(batchAlarm("h2", 3, 11), 1) })
	s.Schedule(sim.Time(1800*time.Millisecond), func() { _ = c.Add(batchAlarm("h1", 7, 6), 1) })
	s.RunFor(10 * time.Second)

	if len(batches) != 1 {
		t.Fatalf("flushed %d batches, want exactly 1", len(batches))
	}
	if at[0] != 2*time.Second {
		t.Fatalf("flush at %v, want the 2s window boundary", at[0])
	}
	b := batches[0]
	if len(b.Alarms) != 2 {
		t.Fatalf("batch entries = %d, want 2 (h1 coalesced, h2 separate)", len(b.Alarms))
	}
	// Arrival order, latest readings win, counts accumulate.
	if b.Alarms[0].Count != 3 || b.Alarms[0].Alarm.Readings["fps"] != 6 {
		t.Errorf("h1 entry = count %d fps %v, want 3 / 6 (latest readings)",
			b.Alarms[0].Count, b.Alarms[0].Alarm.Readings["fps"])
	}
	if b.Alarms[1].Count != 1 || b.Alarms[1].Alarm.ID.Host != "h2" {
		t.Errorf("second entry = %+v, want h2 count 1", b.Alarms[1])
	}
	if b.Summary["domain_saturation"] != 0.25 {
		t.Errorf("summary = %v, want domain_saturation 0.25", b.Summary)
	}
	if c.Added != 4 || c.Coalesced != 2 || c.Batches != 1 || c.Pending() != 0 {
		t.Errorf("stats Added=%d Coalesced=%d Batches=%d Pending=%d, want 4/2/1/0",
			c.Added, c.Coalesced, c.Batches, c.Pending())
	}

	// A second window starts with the next alarm; the timer re-arms.
	s.After(0, func() { _ = c.Add(batchAlarm("h3", 1, 10), 1) })
	s.RunFor(10 * time.Second)
	if len(batches) != 2 {
		t.Fatalf("second window flushed %d batches total, want 2", len(batches))
	}
	if got := at[1] - 10*time.Second; got != 2*time.Second {
		t.Errorf("second flush %v after window start, want 2s", got)
	}
}

// TestCoalescerEscalationFlushesImmediately: an alarm at or above the
// escalation severity drains the pending batch at once — a severe
// fault is never delayed by the coalescing window.
func TestCoalescerEscalationFlushesImmediately(t *testing.T) {
	s := sim.New(1)
	var at []time.Duration
	var batches []msg.AlarmBatch
	send := func(to string, m msg.Message) error {
		at = append(at, s.Now().Duration())
		batches = append(batches, m.Body.(msg.AlarmBatch))
		return nil
	}
	reg := telemetry.NewRegistry(func() time.Duration { return s.Now().Duration() })
	c := NewAlarmCoalescer("domain", "/d", "/region", send, 5*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) })
	c.SetTelemetry(reg)
	c.SetEscalation(2)

	s.Schedule(sim.Time(0), func() { _ = c.Add(batchAlarm("h1", 7, 12), 1) })
	s.Schedule(sim.Time(time.Second), func() { _ = c.Add(batchAlarm("h2", 3, 2), 2) }) // severe
	s.RunFor(20 * time.Second)

	if len(batches) != 1 {
		t.Fatalf("flushed %d batches, want 1 (escalation, then empty timer)", len(batches))
	}
	if at[0] != time.Second {
		t.Fatalf("escalation flush at %v, want 1s (the severe alarm's arrival)", at[0])
	}
	if len(batches[0].Alarms) != 2 {
		t.Errorf("escalation batch entries = %d, want 2 (pending + severe)", len(batches[0].Alarms))
	}
	if got := batches[0].Alarms[1].Severity; got != 2 {
		t.Errorf("severe entry severity = %d, want 2", got)
	}
	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, cv := range snap.Counters {
		counters[cv.Name] = cv.Value
	}
	if counters["batch.domain.escalation_flushes"] != 1 || counters["batch.domain.flushes"] != 1 {
		t.Errorf("counters = %v, want 1 escalation flush and 1 flush", counters)
	}
}

// TestCoalescerSeverityMergesToMax: merging a severe repeat into an
// existing entry keeps the maximum severity seen for that key.
func TestCoalescerSeverityMergesToMax(t *testing.T) {
	var fns []func()
	c := NewAlarmCoalescer("domain", "/d", "/region",
		func(string, msg.Message) error { return nil },
		time.Second, func(d time.Duration, fn func()) { fns = append(fns, fn) })
	_ = c.Add(batchAlarm("h1", 7, 12), 1)
	_ = c.Add(batchAlarm("h1", 7, 3), 2)
	_ = c.Add(batchAlarm("h1", 7, 10), 1)
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	var got msg.AlarmBatch
	c.send = func(to string, m msg.Message) error {
		got = m.Body.(msg.AlarmBatch)
		return nil
	}
	_ = c.Flush()
	if got.Alarms[0].Severity != 2 || got.Alarms[0].Count != 3 {
		t.Errorf("merged entry severity=%d count=%d, want 2/3",
			got.Alarms[0].Severity, got.Alarms[0].Count)
	}
}

// TestCoalescerZeroWindowIsByteIdenticalPassthrough is the degenerate
// case the flat topology relies on: with no window, every Add forwards
// the alarm as a plain msg.Alarm whose wire bytes equal the unbatched
// protocol's.
func TestCoalescerZeroWindowIsByteIdenticalPassthrough(t *testing.T) {
	var forwarded []msg.Message
	c := NewAlarmCoalescer("domain", "/d", "/region",
		func(to string, m msg.Message) error {
			if to != "/region" {
				t.Fatalf("passthrough sent to %q", to)
			}
			forwarded = append(forwarded, m)
			return nil
		},
		0, func(time.Duration, func()) {
			t.Fatal("zero-window coalescer armed a timer")
		})

	alarms := []msg.Alarm{
		batchAlarm("h1", 7, 12),
		batchAlarm("h1", 7, 9), // same key: must NOT merge in passthrough mode
		batchAlarm("h2", 3, 11),
	}
	for _, a := range alarms {
		if err := c.Add(a, 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(forwarded) != len(alarms) {
		t.Fatalf("forwarded %d messages, want %d (one per alarm)", len(forwarded), len(alarms))
	}
	if c.Forwarded != 3 || c.Batches != 0 || c.Pending() != 0 {
		t.Fatalf("stats Forwarded=%d Batches=%d Pending=%d, want 3/0/0",
			c.Forwarded, c.Batches, c.Pending())
	}
	for i, a := range alarms {
		// The old per-alarm protocol: the manager sends the alarm itself.
		want := msg.Message{From: "/d", Body: a}
		wb, err := msg.MarshalWire("/region", want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := msg.MarshalWire("/region", forwarded[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("alarm %d: passthrough bytes differ from unbatched protocol", i)
		}
	}
}

// TestCoalescerEmptyFlushSendsNothing: flushing with nothing pending
// (and no summary hook) is a no-op on the wire.
func TestCoalescerEmptyFlushSendsNothing(t *testing.T) {
	sent := 0
	c := NewAlarmCoalescer("domain", "/d", "/region",
		func(string, msg.Message) error { sent++; return nil },
		time.Second, func(time.Duration, func()) {})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if sent != 0 {
		t.Fatalf("empty flush sent %d messages", sent)
	}
}
