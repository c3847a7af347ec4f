// Package sim provides the deterministic discrete-event simulation core on
// which every simulated substrate (CPU scheduler, network, managed
// applications, QoS managers) runs.
//
// A Simulator owns a virtual clock and a time-ordered event queue. Events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps runs reproducible. All simulated components must derive any
// randomness they need from the Simulator's seeded RNG rather than from
// package math/rand globals.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of the
// simulation. It deliberately mirrors time.Duration so the rest of the code
// can use duration literals (33 * time.Millisecond) for intervals.
type Time int64

// Common conversions.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// At returns the Time corresponding to a duration from simulation start.
func At(d time.Duration) Time { return Time(d) }

// key orders events: by virtual time, then FIFO among equal timestamps.
type key struct {
	at  Time
	seq uint64
}

func (k key) before(o key) bool { return k.at < o.at || k.at == o.at && k.seq < o.seq }

// event is one pending callback. The queue holds events by value, so
// scheduling allocates nothing per event.
type event struct {
	key
	fn func()
}

// EventID identifies a scheduled event so it can be cancelled. It is the
// event's queue key. When an event fires, every event keyed before it has
// left the queue, and every event scheduled later is keyed after it. So an
// event is pending exactly when its key is after the last fired one and
// it has not been cancelled.
type EventID struct {
	sim *Simulator
	key
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (id EventID) Cancel() bool {
	if !id.Pending() {
		return false
	}
	s := id.sim
	if s.cancelled == nil {
		s.cancelled = make(map[uint64]struct{})
	}
	s.cancelled[id.seq] = struct{}{}
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (id EventID) Pending() bool {
	if id.sim == nil || !id.sim.last.before(id.key) {
		return false
	}
	_, dead := id.sim.cancelled[id.seq]
	return !dead
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulated concurrency is expressed as events.
type Simulator struct {
	now     Time
	queue   []event // binary min-heap on key
	seq     uint64  // last assigned; the first event gets 1
	last    key     // key of the last event fired; zero before any
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// cancelled holds the seq of every cancelled event keyed after last.
	// A cancelled event is reaped (popped unfired) when it reaches the
	// head of the queue, and may be reaped ahead of the clock; its entry
	// stays until an event keyed after it fires, so its EventID keeps
	// reporting not pending. reaped lists those entries.
	cancelled map[uint64]struct{}
	reaped    []key
}

// New returns a Simulator whose RNG is seeded with seed, at virtual time 0.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far (useful in tests and
// for progress metrics).
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued (including
// cancelled events not yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: that is always a logic error in a DES.
func (s *Simulator) Schedule(at Time, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	s.seq++
	k := key{at, s.seq}
	s.push(event{k, fn})
	return EventID{s, k}
}

// After runs fn after duration d from the current time.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.Schedule(s.now+Time(d), fn)
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned Ticker is stopped or the simulation ends.
func (s *Simulator) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual interval.
type Ticker struct {
	sim      *Simulator
	interval time.Duration
	fn       func()
	tickFn   func() // t.tick, bound once so re-arming allocates nothing
	id       EventID
	stopped  bool
}

func (t *Ticker) arm() { t.id = t.sim.After(t.interval, t.tickFn) }

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.arm()
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.id.Cancel()
}

// Stop halts the simulation after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to it. It
// reports false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		ev := s.pop()
		if s.isCancelled(ev.seq) {
			s.reaped = append(s.reaped, ev.key)
			continue
		}
		s.now = ev.at
		s.last = ev.key
		s.fired++
		if len(s.reaped) > 0 {
			s.forgetReaped()
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (so a subsequent After is relative to the deadline even when
// the queue drained early).
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + Time(d)) }

func (s *Simulator) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if s.isCancelled(s.queue[0].seq) {
			s.reaped = append(s.reaped, s.pop().key)
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

func (s *Simulator) isCancelled(seq uint64) bool {
	if len(s.cancelled) == 0 {
		return false
	}
	_, dead := s.cancelled[seq]
	return dead
}

// forgetReaped drops the cancelled entries of reaped events now keyed at
// or before the last fired one: their keys alone mark them not pending.
func (s *Simulator) forgetReaped() {
	kept := s.reaped[:0]
	for _, k := range s.reaped {
		if s.last.before(k) {
			kept = append(kept, k)
		} else {
			delete(s.cancelled, k.seq)
		}
	}
	s.reaped = kept
}

// push adds ev to the heap, sifting a hole up from the new leaf.
func (s *Simulator) push(ev event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p].key) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	s.queue = q
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	ev := q[n]
	q[n] = event{} // release fn
	q = q[:n]
	if n > 0 {
		// Sift a hole down from the root and drop the former last leaf
		// into it.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c].key) {
				c = r
			}
			if !q[c].before(ev.key) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = ev
	}
	s.queue = q
	return top
}
