package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refSim is the reference event queue the Simulator is checked against:
// a pointer-per-event container/heap with a dead flag per event. It
// implements the same contract (fire order by (at, seq), cancellation,
// Pending counting cancelled-but-unreaped events) in the most direct
// way.
type refSim struct {
	now   Time
	queue refHeap
	seq   uint64
	fired uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int // heap index, -1 once popped
}

func (ev *refEvent) Cancel() bool {
	if ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	return true
}

func (ev *refEvent) Pending() bool { return !ev.dead && ev.idx >= 0 }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	ev.idx = -1
	*h = old[:len(old)-1]
	return ev
}

func (r *refSim) schedule(at Time, fn func()) *refEvent {
	if at < r.now {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refSim) step() bool {
	for len(r.queue) > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		if ev.dead {
			continue
		}
		r.now = ev.at
		r.fired++
		ev.fn()
		return true
	}
	return false
}

func (r *refSim) runUntil(deadline Time) {
	for {
		for len(r.queue) > 0 && r.queue[0].dead {
			heap.Pop(&r.queue)
		}
		if len(r.queue) == 0 || r.queue[0].at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// refTicker re-arms with a fresh closure per firing, as the reference.
type refTicker struct {
	r        *refSim
	interval time.Duration
	fn       func()
	ev       *refEvent
	stopped  bool
}

func (t *refTicker) arm() {
	t.ev = t.r.schedule(t.r.now+Time(t.interval), func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.ev.Cancel()
	}
}

// queueUnderTest is what the randomized driver needs of either queue.
type queueUnderTest interface {
	now() Time
	schedule(at Time, fn func()) handle
	after(d time.Duration, fn func()) handle
	every(d time.Duration, fn func()) interface{ Stop() }
	step() bool
	runUntil(Time)
	fired() uint64
	pending() int
}

type handle interface {
	Cancel() bool
	Pending() bool
}

type simQueue struct{ s *Simulator }

func (q simQueue) now() Time                               { return q.s.Now() }
func (q simQueue) schedule(at Time, fn func()) handle      { return q.s.Schedule(at, fn) }
func (q simQueue) after(d time.Duration, fn func()) handle { return q.s.After(d, fn) }
func (q simQueue) every(d time.Duration, fn func()) interface{ Stop() } {
	return q.s.Every(d, fn)
}
func (q simQueue) step() bool      { return q.s.Step() }
func (q simQueue) runUntil(t Time) { q.s.RunUntil(t) }
func (q simQueue) fired() uint64   { return q.s.Fired() }
func (q simQueue) pending() int    { return q.s.Pending() }

type refQueue struct{ r *refSim }

func (q refQueue) now() Time                          { return q.r.now }
func (q refQueue) schedule(at Time, fn func()) handle { return q.r.schedule(at, fn) }
func (q refQueue) after(d time.Duration, fn func()) handle {
	return q.r.schedule(q.r.now+Time(d), fn)
}
func (q refQueue) every(d time.Duration, fn func()) interface{ Stop() } {
	t := &refTicker{r: q.r, interval: d, fn: fn}
	t.arm()
	return t
}
func (q refQueue) step() bool      { return q.r.step() }
func (q refQueue) runUntil(t Time) { q.r.runUntil(t) }
func (q refQueue) fired() uint64   { return q.r.fired }
func (q refQueue) pending() int    { return len(q.r.queue) }

// driveQueue runs a seeded random workload against q and returns a log
// of everything observable: each firing with its label and time, every
// Cancel and Pending result, and the queue's Fired/Pending/Now after
// each top-level operation. Callbacks themselves schedule (often at the
// same instant), cancel other events and stop tickers.
func driveQueue(q queueUnderTest, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var (
		log     []string
		ids     []handle
		tickers []interface{ Stop() }
		label   int
		mk      func() func()
	)
	cancelSome := func(where string) {
		if len(ids) == 0 {
			return
		}
		id := ids[rng.Intn(len(ids))]
		before := id.Pending()
		ok := id.Cancel()
		log = append(log, fmt.Sprintf("%s cancel pending=%v ok=%v after=%v", where, before, ok, id.Pending()))
	}
	mk = func() func() {
		label++
		l := label
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", l, q.now()))
			switch rng.Intn(6) {
			case 0: // same-instant follow-up
				ids = append(ids, q.schedule(q.now(), mk()))
			case 1:
				ids = append(ids, q.after(time.Duration(rng.Intn(4))*time.Millisecond, mk()))
			case 2:
				cancelSome("cb")
			case 3:
				if len(tickers) > 0 {
					tickers[rng.Intn(len(tickers))].Stop()
				}
			}
		}
	}
	for op := 0; op < 1500; op++ {
		switch rng.Intn(9) {
		case 0, 1:
			at := q.now() + Time(rng.Intn(6))*Time(time.Millisecond)
			ids = append(ids, q.schedule(at, mk()))
		case 2:
			ids = append(ids, q.after(time.Duration(rng.Intn(3))*time.Millisecond, mk()))
		case 3:
			if rng.Intn(4) == 0 {
				tickers = append(tickers, q.every(time.Duration(1+rng.Intn(3))*time.Millisecond, mk()))
			}
		case 4:
			cancelSome("top")
		case 5:
			if len(ids) > 0 {
				log = append(log, fmt.Sprintf("pending=%v", ids[rng.Intn(len(ids))].Pending()))
			}
		case 6, 7:
			log = append(log, fmt.Sprintf("step=%v", q.step()))
		case 8:
			q.runUntil(q.now() + Time(rng.Intn(3))*Time(time.Millisecond))
		}
		log = append(log, fmt.Sprintf("fired=%d pending=%d now=%v", q.fired(), q.pending(), q.now()))
	}
	for _, t := range tickers {
		t.Stop()
	}
	for q.step() {
	}
	return append(log, fmt.Sprintf("end fired=%d pending=%d now=%v", q.fired(), q.pending(), q.now()))
}

// TestQueueMatchesReference checks the value-typed heap and key-based
// cancellation against the container/heap reference over seeded random
// workloads: identical fire order, Fired, Pending and Cancel/Pending
// results at every step.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := driveQueue(simQueue{New(seed)}, seed)
		want := driveQueue(refQueue{&refSim{}}, seed)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: diverged at log line %d: got %q, want %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: log lengths differ: got %d, want %d", seed, len(got), len(want))
		}
	}
}
