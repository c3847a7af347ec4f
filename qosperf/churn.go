package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"softqos/internal/runtime"
)

// churnResult is what a churn phase measured.
type churnResult struct {
	register sampleSet // hand-over → Register returned with the policy set installed, ms
	episode  sampleSet // violation → the host manager's CPU boost, ms
	converge sampleSet // push call → every process alive at the push installed it, ms
	genLate  []float64 // generator lateness against due time, µs

	lifecycles, pushes int
	failed             int
	adjustments        uint64
	problems           []string
}

// pushState tracks one push until every process alive when it started
// has installed its version or exited.
type pushState struct {
	version   int
	start     time.Time
	remaining map[*proc]bool
	last      time.Time
	done      bool
}

// convergence follows which policy version each live process runs.
type convergence struct {
	mu        sync.Mutex
	alive     map[*proc]bool
	pushes    []*pushState
	converged int // newest version every process alive at its push installed
	res       *churnResult
}

func (c *convergence) join(p *proc) {
	c.mu.Lock()
	c.alive[p] = true
	c.mu.Unlock()
}

// installed is called on a process's dispatcher whenever it installs a
// policy set.
func (c *convergence) installed(p *proc, version int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ps := range c.pushes {
		if !ps.done && ps.version <= version && ps.remaining[p] {
			delete(ps.remaining, p)
			ps.last = now
			c.settle(ps)
		}
	}
}

// leave drops an exiting process from every push still waiting on it.
func (c *convergence) leave(p *proc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.alive, p)
	for _, ps := range c.pushes {
		if !ps.done && ps.remaining[p] {
			delete(ps.remaining, p)
			c.settle(ps)
		}
	}
}

// settle records a push's convergence once nobody is left to install it.
// Caller holds mu.
func (c *convergence) settle(ps *pushState) {
	if len(ps.remaining) > 0 || ps.done {
		return
	}
	ps.done = true
	if ps.last.IsZero() {
		return // everybody alive at the push exited before installing it
	}
	lat := ps.last.Sub(ps.start)
	if lat > adaptTimeout {
		c.res.converge.fail()
	} else {
		c.res.converge.add(float64(lat) / 1e6)
	}
	if ps.version > c.converged {
		c.converged = ps.version
	}
}

func (c *convergence) begin(version int, start time.Time) *pushState {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := &pushState{version: version, start: start, remaining: make(map[*proc]bool, len(c.alive))}
	for p := range c.alive {
		ps.remaining[p] = true
	}
	c.pushes = append(c.pushes, ps)
	return ps
}

func (c *convergence) newest() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.converged
}

// churnConfig sets a churn phase's offered load.
type churnConfig struct {
	rate      float64       // process lifecycles per second (Poisson)
	pushEvery time.Duration // mean push spacing (uniform ±25% jitter)
	viewers   float64       // share of processes with the "viewer" role
}

// lifecycle is one short-lived process (or a push) due to start at due
// and handed over by the generator at issued.
type lifecycle struct {
	due, issued time.Time
	role        string
	op          int64
}

// runChurn runs short-lived processes through the live stack for d while
// policy pushes roll out beside them. Each process gets a fresh identity,
// registers, raises one violation the host manager answers with a CPU
// boost, and exits; one lifecycle runs at a time. steady are the
// long-lived processes, which must install every push. lastVersion is
// the newest version pushed before this phase; the phase's pushes follow
// it.
func runChurn(s *liveStack, steady []*proc, rng *rand.Rand, cfg churnConfig, d time.Duration, opBase int64, lastVersion int) (churnResult, int) {
	tr := s.tr
	var res churnResult
	conv := &convergence{alive: map[*proc]bool{}, res: &res, converged: lastVersion}
	for _, p := range steady {
		conv.join(p)
		p := p
		p.jit.mu.Lock()
		p.jit.onInstall = func(v int) { conv.installed(p, v) }
		p.jit.mu.Unlock()
	}

	var wmu sync.Mutex
	waiters := map[int]chan struct{}{}
	var adjustments atomic.Uint64
	s.setOnAdjust(func(a runtime.Adjustment) {
		adjustments.Add(1)
		wmu.Lock()
		ch := waiters[a.PID]
		wmu.Unlock()
		if ch != nil {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	})

	rate, pushEvery := cfg.rate, cfg.pushEvery
	lifecycles, pushes := int(rate*d.Seconds()), int(d/pushEvery)

	// The queues hold every lifecycle and push the schedule can produce,
	// so the generator never blocks on a busy slot or a slow push: a
	// backlog shows as latency from the hand-over, as in an open loop.
	work := make(chan lifecycle, 2*lifecycles+16)
	pushq := make(chan lifecycle, 2*pushes+16)
	var wg sync.WaitGroup
	var rmu sync.Mutex // guards res fields the worker writes
	hv0, ad0 := s.hostViolations(), s.counter("manager.live.adaptations")
	lifeFailed := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lc := range work {
			p := s.newProc(lc.role, conv.installed)
			conv.join(p)
			required := conv.newest()
			var regRoot int32
			if tr != nil {
				tr.record("bench.queue_wait", 0, lc.op, tr.at(lc.issued), tr.now())
				regRoot = tr.reserve()
			}
			regStart := time.Now()
			err := p.register(lc.op, regRoot)
			regEnd := time.Now()
			if tr != nil {
				tr.finish(regRoot, "bench.register", 0, lc.op, tr.at(regStart), tr.at(regEnd))
			}
			var problem string
			ok := err == nil && regEnd.Sub(lc.issued) <= adaptTimeout
			if ok {
				if v, _ := p.jit.installed(); v < required {
					problem = fmt.Sprintf("process %d registered with policy version %d, %d had converged before it started", p.id.PID, v, required)
				}
			}

			// The process reports healthy readings, then degrades: the
			// violation the host manager answers with a CPU boost.
			epOK := false
			var epLat time.Duration
			if err == nil {
				ch := make(chan struct{}, 1)
				wmu.Lock()
				waiters[p.id.PID] = ch
				wmu.Unlock()
				p.comply()
				epRoot := tr.reserve()
				epStart := time.Now()
				p.violate(lc.op, epRoot)
				select {
				case <-ch:
					epLat = time.Since(epStart)
					epOK = epLat <= adaptTimeout
				case <-time.After(adaptTimeout):
				}
				if tr != nil && epOK {
					tr.finish(epRoot, "bench.episode", 0, lc.op, tr.at(epStart), tr.at(epStart.Add(epLat)))
				}
				wmu.Lock()
				delete(waiters, p.id.PID)
				wmu.Unlock()
			}
			conv.leave(p)
			p.close()

			rmu.Lock()
			if ok {
				res.register.add(float64(regEnd.Sub(lc.issued)) / 1e6)
			} else {
				res.register.fail()
			}
			if epOK {
				res.episode.add(float64(epLat) / 1e6)
			} else {
				res.episode.fail()
			}
			if !ok || !epOK {
				lifeFailed++
			}
			if problem != "" {
				res.problems = append(res.problems, problem)
			}
			rmu.Unlock()
		}
	}()

	// Pushes run in order on their own goroutine: the controller takes
	// one rollout at a time.
	version := lastVersion
	var pushErrs []string
	var pushers sync.WaitGroup
	pushers.Add(1)
	go func() {
		defer pushers.Done()
		for req := range pushq {
			version++
			ps := conv.begin(version, time.Now())
			if err := s.push(version, req.op); err != nil {
				pushErrs = append(pushErrs, err.Error())
				conv.mu.Lock()
				ps.done = true
				res.converge.fail()
				conv.mu.Unlock()
			}
		}
	}()

	start := time.Now()
	nextLife := start.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
	jitter := func() time.Duration {
		return time.Duration(float64(pushEvery) * (0.75 + 0.5*rng.Float64()))
	}
	nextPush := start.Add(jitter())
	for i := int64(1); ; i++ {
		due, isPush := nextLife, false
		if nextPush.Before(nextLife) {
			due, isPush = nextPush, true
		}
		if due.Sub(start) >= d {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := time.Since(due)
		res.genLate = append(res.genLate, float64(late)/1e3)
		op := opBase + i
		if isPush {
			nextPush = nextPush.Add(jitter())
			res.pushes++
			pushq <- lifecycle{due: due, issued: time.Now(), op: op}
			continue
		}
		nextLife = nextLife.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		role := ""
		if rng.Float64() < cfg.viewers {
			role = "viewer"
		}
		res.lifecycles++
		work <- lifecycle{due: due, issued: time.Now(), role: role, op: op}
	}
	close(work)
	close(pushq)
	wg.Wait()
	pushers.Wait()

	// Every push must reach every process alive at it within the timeout.
	time.Sleep(10 * time.Millisecond)
	deadline := time.Now().Add(adaptTimeout)
	for {
		conv.mu.Lock()
		open := 0
		for _, ps := range conv.pushes {
			if !ps.done {
				open++
			}
		}
		conv.mu.Unlock()
		if open == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	conv.mu.Lock()
	for _, ps := range conv.pushes {
		if !ps.done {
			ps.done = true
			res.converge.fail()
		}
	}
	conv.mu.Unlock()
	for _, p := range steady {
		if v, _ := p.jit.installed(); v != version {
			res.problems = append(res.problems, fmt.Sprintf("steady process %d runs policy version %d, last pushed %d", p.id.PID, v, version))
		}
		p.jit.mu.Lock()
		p.jit.onInstall = nil
		p.jit.mu.Unlock()
	}
	res.problems = append(res.problems, pushErrs...)
	s.setOnAdjust(nil)
	res.adjustments = adjustments.Load()
	// Every violation report is answered by exactly one adaptation: a
	// CPU boost, or a frame_skip request once the boost saturates. (A
	// process that installs a pushed policy set between its healthy and
	// its violating readings reports more than once: re-installed
	// conditions start unevaluated, and both halves of the frame-rate
	// band alarm.)
	if v, a := s.hostViolations()-hv0, s.counter("manager.live.adaptations")-ad0; a != v {
		res.problems = append(res.problems, fmt.Sprintf("host manager adapted %d times for %d violation reports", a, v))
	}
	res.failed = lifeFailed + res.converge.failures()
	return res, version
}
