package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"softqos/internal/runtime"
)

// steadyProcs starts the long-lived processes of a live stack: each
// registers, then is warmed with violations until the host manager's CPU
// boost saturates (three boosts of 15 reach the rules' saturation of
// 40), after which every violation is answered with a frame_skip
// request instead of another boost.
func steadyProcs(s *liveStack, n int) ([]*proc, error) {
	adj := make(chan runtime.Adjustment, 16) // warm-up boosts, a few per process
	s.setOnAdjust(func(a runtime.Adjustment) {
		select {
		case adj <- a:
		default:
		}
	})
	defer s.setOnAdjust(nil)
	var out []*proc
	for i := 0; i < n; i++ {
		p := s.newProc("", nil)
		s.started(p)
		out = append(out, p)
		if err := p.register(0, 0); err != nil {
			return out, fmt.Errorf("steady process %d: register: %w", p.id.PID, err)
		}
		// Healthy readings first, so that each violation below is one
		// report: a condition's first evaluation alarms even when met.
		p.comply()
		for w := 0; w < 3; w++ {
			p.violate(0, 0)
			select {
			case a := <-adj:
				if a.PID != p.id.PID || a.What != "boost" || a.Value != 15*(w+1) {
					return out, fmt.Errorf("steady process %d: warm-up adjustment %+v", p.id.PID, a)
				}
			case <-time.After(adaptTimeout):
				return out, fmt.Errorf("steady process %d: warm-up violation %d not boosted", p.id.PID, w+1)
			}
		}
		p.comply()
	}
	return out, nil
}

// episodeResult is what an episodes phase measured.
type episodeResult struct {
	latency  sampleSet // detect→adapt per episode, ms, from its hand-over to the process
	genLate  []float64 // generator lateness against due time, µs
	issued   int
	failed   int
	problems []string
}

// pendingEpisode is an issued episode awaiting its frame_skip. It was
// due on the schedule at due, and handed to its process at issued: due
// plus the generator's own timer lateness.
type pendingEpisode struct {
	due, issued time.Time
	op          int64
	root        int32
}

// runEpisodes drives violations at rate per second (Poisson arrivals
// from rng) alternating over the steady processes, for d. One episode is
// a violating update, the coordinator's report over TCP, the host
// manager's rules requesting adaptation, and the frame_skip directive
// back to the process; it ends when the actuator runs.
func runEpisodes(s *liveStack, procs []*proc, rng *rand.Rand, rate float64, d time.Duration, opBase int64) episodeResult {
	tr := s.tr
	var res episodeResult
	var mu sync.Mutex
	pending := make(map[*proc][]pendingEpisode, len(procs))
	skips := make(map[*proc]int, len(procs))
	issued := make(map[*proc]int, len(procs))
	done := make(chan struct{}, 1)
	outstanding := 0
	for _, p := range procs {
		p := p
		onSkip := func() {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			skips[p]++
			q := pending[p]
			if len(q) == 0 {
				res.problems = append(res.problems, fmt.Sprintf("process %d: frame_skip without an episode", p.id.PID))
				return
			}
			ep := q[0]
			pending[p] = q[1:]
			lat := now.Sub(ep.issued)
			if lat > adaptTimeout {
				res.latency.fail()
				res.failed++
			} else {
				res.latency.add(float64(lat) / 1e6)
			}
			if tr != nil {
				tr.finish(ep.root, "bench.episode", 0, ep.op, tr.at(ep.issued), tr.at(now))
			}
			outstanding--
			if outstanding == 0 {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		}
		p.onSkip.Store(&onSkip)
	}

	// Each process's application thread applies its sensor updates in
	// order; the generator only hands them over, so a process that is
	// slow to take an update does not delay the schedule. The buffers
	// hold every episode the phase can issue.
	feeds := make(map[*proc]chan pendingEpisode, len(procs))
	var feeders sync.WaitGroup
	for _, p := range procs {
		p := p
		feed := make(chan pendingEpisode, int(rate*d.Seconds()*2)+16)
		feeds[p] = feed
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for ep := range feed {
				if tr != nil {
					tr.record("bench.feed_wait", ep.root, ep.op, tr.at(ep.issued), tr.now())
				}
				p.violate(ep.op, ep.root)
			}
		}()
	}

	hv0 := s.hostViolations()
	failed0 := s.counter("msg.net.send_failed")
	start := time.Now()
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := time.Since(due)
		res.genLate = append(res.genLate, float64(late)/1e3)
		p := procs[i%len(procs)]
		op := opBase + int64(i) + 1
		root := tr.reserve()
		if tr != nil {
			tr.record("bench.gen_late", 0, op, tr.at(due), tr.at(due)+int64(late))
		}
		ep := pendingEpisode{due: due, issued: time.Now(), op: op, root: root}
		mu.Lock()
		pending[p] = append(pending[p], ep)
		outstanding++
		issued[p]++
		mu.Unlock()
		res.issued++
		feeds[p] <- ep
	}
	for _, feed := range feeds {
		close(feed)
	}
	feeders.Wait()
	// Let the last episodes adapt.
	deadline := time.Now().Add(adaptTimeout)
	for {
		mu.Lock()
		n := outstanding
		mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			break
		}
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
		}
	}
	mu.Lock()
	for _, p := range procs {
		p.onSkip.Store(nil)
		for range pending[p] {
			res.latency.fail()
			res.failed++
		}
		pending[p] = nil
		if skips[p] != issued[p] {
			res.problems = append(res.problems, fmt.Sprintf("process %d: %d frame_skip for %d episodes",
				p.id.PID, skips[p], issued[p]))
		}
	}
	mu.Unlock()
	if got := s.hostViolations() - hv0; got != uint64(res.issued) {
		res.problems = append(res.problems, fmt.Sprintf("host manager saw %d violations for %d episodes", got, res.issued))
	}
	if f := s.counter("msg.net.send_failed") - failed0; f != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d sends failed", f))
	}
	if n := s.counter("msg.net.dropped_invalid"); n != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d invalid messages dropped", n))
	}
	return res
}
