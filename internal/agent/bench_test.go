package agent

import (
	"fmt"
	"testing"

	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
)

const benchPolicySrc = `
oblig BenchPolicy {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

// benchAgent builds an agent over the demo model with n registered
// processes and a warmed generation cache, returning the agent and the
// specs each delta carries. send, when non-nil, replaces the
// always-succeeding transport.
func benchAgent(b *testing.B, n int, send Send) (*PolicyAgent, []msg.PolicySpec) {
	b.Helper()
	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	for _, err := range []error{
		svc.DefineApplication("VideoApplication", "mpeg_play"),
		svc.DefineExecutable("mpeg_play", map[string][]string{
			"fps_sensor":    {"frame_rate"},
			"jitter_sensor": {"jitter_rate"},
			"buffer_sensor": {"buffer_size"},
		}),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	pol, err := policy.ParseOne(benchPolicySrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.StorePolicy(pol, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		b.Fatal(err)
	}
	if send == nil {
		send = func(string, msg.Message) error { return nil }
	}
	pa := New("/bench/PolicyAgent", svc, send)
	for i := 0; i < n; i++ {
		pa.HandleMessage(msg.Message{From: fmt.Sprintf("/proc/%d", i),
			Body: msg.Register{ID: msg.Identity{Host: fmt.Sprintf("h-%d", i),
				PID: i + 1, Executable: "mpeg_play", Application: "VideoApplication"}}})
	}
	specs, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cache: one fleet delta so registrations hit it.
	pa.HandleMessage(msg.Message{Body: msg.PolicyDelta{
		Generation: 1, Prev: 0, Executable: "mpeg_play", Scope: "fleet",
		Policies: specs}})
	return pa, specs
}

// BenchmarkRegisterCacheHit is a registration answered from the
// delta-maintained cache — no repository walk.
func BenchmarkRegisterCacheHit(b *testing.B) {
	pa, _ := benchAgent(b, 1, nil)
	reg := msg.Message{From: "/proc/0", Body: msg.Register{
		ID: msg.Identity{Host: "h-0", PID: 1, Executable: "mpeg_play",
			Application: "VideoApplication"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.HandleMessage(reg)
	}
}

// BenchmarkDeltaFanout100 folds one chained fleet delta into the cache
// and re-delivers the new view to 100 registered processes.
func BenchmarkDeltaFanout100(b *testing.B) {
	pa, specs := benchAgent(b, 100, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 2) // chained: Prev is always the cached generation
		pa.HandleMessage(msg.Message{Trace: telemetry.TraceContext{},
			Body: msg.PolicyDelta{Generation: gen, Prev: gen - 1,
				Executable: "mpeg_play", Scope: "fleet", Policies: specs}})
	}
	if st := pa.CacheStats(); st.Refreshes != 1 || st.Stale != 0 {
		b.Fatalf("cache did not stay chained: %+v", st)
	}
}

// BenchmarkDeltaFanout folds chained fleet deltas into an agent that
// has served 1000 processes, 990 of which have exited (their sends fail
// with ErrNoRoute), and half of which run under the "viewer" role. The
// first delta prunes the exited ones; every later delta re-delivers to
// the 10 live registrants and resolves the viewer view once.
func BenchmarkDeltaFanout(b *testing.B) {
	const n, live = 1000, 10
	exited := make(map[string]bool, n-live)
	pa, specs := benchAgent(b, 0, func(to string, _ msg.Message) error {
		if exited[to] {
			return &msg.SendError{To: to, Kind: msg.ErrNoRoute}
		}
		return nil
	})
	for i := 0; i < n; i++ {
		id := msg.Identity{Host: fmt.Sprintf("h-%d", i), PID: i + 1,
			Executable: "mpeg_play", Application: "VideoApplication"}
		if i%2 == 1 {
			id.UserRole = "viewer"
		}
		from := fmt.Sprintf("/proc/%d", i)
		pa.HandleMessage(msg.Message{From: from, Body: msg.Register{ID: id}})
		exited[from] = i >= live
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 2)
		pa.HandleMessage(msg.Message{Body: msg.PolicyDelta{Generation: gen, Prev: gen - 1,
			Executable: "mpeg_play", Scope: "fleet", Policies: specs}})
	}
	b.StopTimer()
	if len(pa.order) != live {
		b.Fatalf("roster holds %d registrants, want the %d live ones", len(pa.order), live)
	}
}
