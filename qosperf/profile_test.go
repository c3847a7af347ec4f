package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestModuleOfLeafFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"softqos/internal/msg.(*NetTransport).Send", "main.main"}, "msg"},
		{[]string{"softqos/internal/rules.(*Engine).Run"}, "rules"},
		{[]string{"softqos/internal/telemetry/eventlog.(*Logger).Event"}, "telemetry-eventlog"},
		{[]string{"softqos/internal/telemetry.(*Histogram).Observe"}, "telemetry"},
		{[]string{"softqos/internal/sched.(*Host).Run"}, ""}, // not a measured module
		{[]string{"encoding/json.(*encodeState).marshal"}, "encoding-json"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Write"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go-gc"},
		{[]string{"runtime.mallocgc", "softqos/internal/msg.appendWire"}, ""}, // allocation, not GC
		{[]string{"softqos.(*LiveCoordinator).Register"}, ""},
		{nil, ""},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}
func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}
func (p *pb) packed(field int, xs ...uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	p.bytes(field, inner.b)
}

func TestCPUSharesFromProfile(t *testing.T) {
	var prof pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"softqos/internal/msg.(*NetTransport).Send", // 5
		"softqos/internal/rules.(*Engine).Run",      // 6
		"main.main",                                 // 7
		"runtime.scanobject",                        // 8
		"runtime.gcBgMarkWorker",                    // 9
	}
	// Functions 1..5 name strings 5..9.
	for id := uint64(1); id <= 5; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, id+4)
		prof.bytes(5, f.b)
	}
	// Location 1: msg inlined into main (leaf first). Location 2: rules.
	// Location 3: main. Location 4: GC worker frames.
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	loc(1, 1, 3)
	loc(2, 2)
	loc(3, 3)
	loc(4, 4, 5)
	sample := func(value uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, value)
		prof.bytes(2, s.b)
	}
	sample(30, 1)    // msg, leaf of an inlined location
	sample(10, 2, 3) // rules under main
	sample(20, 3)    // main: unattributed
	sample(40, 4)    // GC
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(prof.b)
	_ = zw.Close()

	shares, total, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("total = %d, want 100", total)
	}
	want := map[string]float64{"msg": 0.3, "rules": 0.1, "go-gc": 0.4, "agent": 0}
	for k, w := range want {
		if math.Abs(shares[k]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, shares[k], w)
		}
	}
	if len(shares) != len(cpuShareBuckets) {
		t.Errorf("%d shares, want one per bucket (%d)", len(shares), len(cpuShareBuckets))
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	var p pb
	p.bytes(6, []byte("string"))
	if _, err := parseProfile(p.b[:len(p.b)-2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
