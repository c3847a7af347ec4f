package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root: clipped to 90..100
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[int32]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestSelfTimeIgnoresChildrenOutsideParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "send", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "transit", Start: 10, End: 40}, // caused by the send, after it
	}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Errorf("self(send) = %d, want 10", got)
	}
}

func TestLinksPairInOrderPerConnection(t *testing.T) {
	tr := newTracer()
	tr.pushLink("/a", "b", &link{op: 7})
	dropped := &link{op: 99}
	tr.pushLink("/a", "b", dropped)
	tr.pushLink("/a", "b", &link{op: 8})
	tr.pushLink("/c", "b", &link{op: 9})
	tr.dropLink("/a", "b", dropped) // its send failed
	for _, want := range []struct {
		from string
		op   int64
	}{{"/a", 7}, {"/c", 9}, {"/a", 8}} {
		l, ok := tr.popLink(want.from, "b")
		if !ok || l.op != want.op {
			t.Errorf("pop %s = %+v, %v; want op %d", want.from, l, ok, want.op)
		}
	}
	if _, ok := tr.popLink("/a", "b"); ok {
		t.Error("pop from an empty queue succeeded")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.record("x", 0, 0, 0, 1); id != 0 {
		t.Errorf("record on nil tracer = %d", id)
	}
	if id := tr.reserve(); id != 0 {
		t.Errorf("reserve on nil tracer = %d", id)
	}
	tr.pushLink("a", "b", &link{})
	if _, ok := tr.popLink("a", "b"); ok {
		t.Error("nil tracer returned a link")
	}
}
