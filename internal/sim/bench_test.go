package sim

import (
	"testing"
	"time"
)

// steadyQueue returns a simulator holding n pending events of fn spread
// over the next second, and a cycle of delays to schedule more at.
func steadyQueue(n int, fn func()) (*Simulator, []time.Duration) {
	s := New(1)
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(s.Rand().Int63n(int64(time.Second)))
	}
	for i := 0; i < n; i++ {
		s.After(delays[i%len(delays)], fn)
	}
	return s, delays
}

// BenchmarkSimScheduleStep measures the event core at a steady ~10k
// pending events: each op schedules one event and fires one.
func BenchmarkSimScheduleStep(b *testing.B) {
	fn := func() {}
	s, delays := steadyQueue(10_000, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(delays[i&(len(delays)-1)], fn)
		s.Step()
	}
}

// TestScheduleStepZeroAllocs pins the event core in the regular suite:
// at steady state, scheduling a pre-bound func and stepping one event
// allocates nothing.
func TestScheduleStepZeroAllocs(t *testing.T) {
	fn := func() {}
	s, delays := steadyQueue(10_000, fn)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(delays[i&(len(delays)-1)], fn)
		s.Step()
		i++
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f per event, want 0", allocs)
	}
}
