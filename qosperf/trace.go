package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own call into that layer. Times are nanoseconds
// since the tracer started. Spans of one operation (an episode, a
// registration, a push) share Op; Parent is the span that caused this
// one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out
// once, at the end. A nil *tracer records nothing, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	links linkTable
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), links: linkTable{q: map[string][]*link{}}}
}

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall time to the tracer's time base.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int32, op, start, end int64) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// reserve allocates a span ID before the span ends, so children recorded
// during the call can name it as their parent; finish fills it in.
func (t *tracer) reserve() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int32, name string, parent int32, op, start, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1] = span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end}
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if s.Name == "" {
			continue // reserved, never finished (operation abandoned)
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// link carries causality across a TCP hop the benchmark cannot see
// into: the sending side pushes one just before its Send call, the
// receiving side pops it when its handler starts. Each connection
// delivers in order to one serial dispatcher, so per (sender, receiver)
// pair the k-th pop matches the k-th push. The link is pushed before the
// send because the peer may start handling the message before Send
// returns; sentAt is filled in when it does.
type link struct {
	sentAt atomic.Int64
	op     int64
	parent int32
}

type linkTable struct {
	mu sync.Mutex
	q  map[string][]*link
}

func linkKey(from, to string) string { return from + "\x00" + to }

func (t *tracer) pushLink(from, to string, l *link) {
	if t == nil {
		return
	}
	k := linkKey(from, to)
	t.links.mu.Lock()
	t.links.q[k] = append(t.links.q[k], l)
	t.links.mu.Unlock()
}

func (t *tracer) popLink(from, to string) (*link, bool) {
	if t == nil {
		return nil, false
	}
	k := linkKey(from, to)
	t.links.mu.Lock()
	defer t.links.mu.Unlock()
	q := t.links.q[k]
	if len(q) == 0 {
		return nil, false
	}
	l := q[0]
	if len(q) == 1 {
		delete(t.links.q, k)
	} else {
		t.links.q[k] = q[1:]
	}
	return l, true
}

// dropLink withdraws a link whose send failed: no handler will pop it.
func (t *tracer) dropLink(from, to string, l *link) {
	if t == nil {
		return
	}
	k := linkKey(from, to)
	t.links.mu.Lock()
	defer t.links.mu.Unlock()
	q := t.links.q[k]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i] == l {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.links.q, k)
	} else {
		t.links.q[k] = q
	}
}

// spanStats summarizes spans by name: durations and self times in µs.
type spanStats struct {
	dur  map[string][]float64
	self map[string][]float64
}

func summarizeSpans(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		if s.Name == "" {
			continue
		}
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID])/1e3)
	}
	return st
}
