# Tier-1 verification for the softqos repository.
#
# `make check` is the gate every change must pass: build everything,
# vet, and run the full test suite under the race detector. The
# simulation core is single-threaded by design, but the TCP transport,
# the live managers and the telemetry registry are concurrent — the
# race detector is part of the contract, not an optional extra.

GO ?= go

.PHONY: all build vet test race check bench bench-diff bench-smoke fuzz-smoke examples lint-log live-smoke trace-smoke fleet-smoke policy-smoke soak clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Compile every runnable entry point (the examples and qosd) so a
# library refactor cannot silently break them.
examples:
	$(GO) build ./examples/... ./cmd/...

# Tier-1 tests: always run with -race.
test: race

race:
	$(GO) test -race ./...

check: build vet lint-log examples race trace-smoke fleet-smoke policy-smoke soak

# Library code must never print: diagnostics go through the structured
# event log (internal/telemetry/eventlog) or the telemetry registry, so
# they stay bounded, leveled and trace-correlated. Commands and tests
# may print; internal/ packages may not.
lint-log:
	@bad=$$(grep -rnE '\b(log\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln)|fmt\.(Print|Printf|Println))\(' internal/ --include='*.go' | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-log: stray stdlib printing in internal/ — route through eventlog or telemetry:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint-log: ok"

# The resilience gate: seeded chaos soaks — hundreds of violation
# episodes under a randomized fault schedule on the sim Bus, plus the
# live-TCP soak with a mid-run manager restart — under the race
# detector. Every episode must recover or be abandoned with a traced
# reason; a silently stalled episode fails the gate.
soak:
	$(GO) test -race -timeout 120s -v -run 'TestSoakSim|TestSoakReproducible|TestLiveSoak' ./internal/scenario .

# The live-mode gate: the full control loop (register -> violation ->
# rule firing -> directive -> recovery) over real TCP, plus the live
# manager wiring tests, under the race detector with a short timeout.
live-smoke:
	$(GO) test -race -timeout 60s -v -run 'TestLiveEndToEndControlLoop|TestLiveHostManager|TestFullLiveStack' .

# The observability gate: a live session with the HTTP export surface
# attached — drive a violation to recovery over TCP, scrape /metrics
# (must parse as Prometheus text) and /debug/qos (must export the
# unified causal tree with rule-firing explanations), then the SLO
# surface: /debug/qos/slo must show compliance dipping below 1.0 while
# the induced violation is open and climbing back after recovery.
trace-smoke:
	$(GO) test -race -timeout 120s -v -run 'TestLiveObservabilityEndpoints|TestLiveSLOCompliance' .

# The policy-distribution gate: live TCP end to end — policyctl's wire
# path pushes a policy that reaches the running coordinator without a
# restart, a compliant canary bakes and promotes, an unattainable one
# breaches its burn rate and auto-rolls back (status via policyctl,
# state on /debug/qos) — plus the seeded policy-churn determinism tier
# (generations pushed mid-run under randomized faults must converge
# byte-identically) and the fleet simulator's hierarchical delta relay.
policy-smoke:
	$(GO) test -race -timeout 180s -v -run 'TestLivePolicyRollout|TestPolicyChurn|TestFleetPolicy' ./internal/scenario .

# The fleet-scale gate: assemble the three-tier hierarchy at 1000
# hosts, simulate two minutes of virtual time (sub-second wall), and
# require a healthy run — every tier registered, >=90% of load spikes
# adapted, detect->adapt p99 under a second, and region-side alarm
# accounting exact. The second line re-runs at 10k hosts with the
# federated telemetry plane armed: the region must reconstruct the
# fleet view from domain aggregates alone, within the per-host heap
# budget, and serve each debug payload under the size cap. Bounded
# wall-clock by construction: the simulation is event-driven, not
# real-time.
fleet-smoke:
	$(GO) run ./cmd/qosfleet -hosts 1000 -duration 2m -check
	$(GO) run ./cmd/qosfleet -hosts 10000 -procs 10 -duration 2m -federate -eventlog -check

# Perf trajectory: `make bench` runs the micro-benchmarks (hot-path
# packages at a stable benchtime, macro scenario benchmarks once) and
# records the next-numbered BENCH_<n>.json snapshot via cmd/benchfmt.
# `make bench-diff` compares the two newest snapshots and fails on a
# >20% ns/op or allocs/op regression in the gated hot-path benchmarks.
BENCHTIME ?= 200ms

bench:
	( $(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
	      ./internal/sim ./internal/msg ./internal/rules ./internal/telemetry \
	      ./internal/telemetry/eventlog \
	      ./internal/telemetry/export ./internal/netsim \
	      ./internal/repository ./internal/agent ; \
	  $(GO) test -run='^$$' -bench='^Benchmark(PolicyEvaluate|InstrumentationPass)$$' \
	      -benchmem -benchtime=$(BENCHTIME) . ; \
	  $(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x . ) | $(GO) run ./cmd/benchfmt -dir .

bench-diff:
	$(GO) run ./cmd/benchfmt -diff -dir .

# The end-to-end benchmark gate (qosperf, see BENCHMARK.json): its own
# unit tests, then a 5-second untraced live-churn run — processes
# registering, violating and exiting beside policy pushes over loopback
# TCP. The run's last line must report every output correct and no
# failed operation; the timing numbers themselves are not gated here.
bench-smoke:
	cd qosperf && $(GO) test ./...
	@last=$$(bash qosperf/run.sh --workload live-churn --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	echo "$$last"; \
	if ! echo "$$last" | grep -Eq '"correct": ?true' || ! echo "$$last" | grep -Eq '"failed": ?0[,}]'; then \
		echo "bench-smoke: live-churn run not correct or has failed operations"; \
		exit 1; \
	fi
	@echo "bench-smoke: ok"

# The wire-decoder fuzz gate: UnmarshalWire is the only parser of bytes
# read off a management socket, so each msg fuzz target runs for 10 s
# on top of its seed corpus. A crash writes the failing input under
# internal/msg/testdata/fuzz/ and fails the target.
FUZZ_TARGETS = FuzzUnmarshal FuzzBinaryTruncation FuzzPolicyDelta FuzzCodecRoundTrip

fuzz-smoke:
	@for f in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $$f"; \
		$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=10s -parallel=2 ./internal/msg || exit 1; \
	done
	@echo "fuzz-smoke: ok"

clean:
	$(GO) clean ./...
