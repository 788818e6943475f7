# Tier-1 verification and the common dev loops in one place.
#   make            = build + test (the tier-1 gate)
#   make race       = full suite under the race detector
#   make bench      = every benchmark with allocation counts
GO ?= go

.PHONY: all build test race telemetry-smoke governor-smoke scenario-smoke chaos-smoke energy-smoke fleet-smoke fuzz-smoke fuzz-batch-smoke vet fmt-check vuln bench bench-gate bench-baseline

all: build test

build:
	$(GO) build ./...

# Tier-1 tests.
test: build
	$(GO) test ./...

# The race detector over the whole module: the sweep pool and everything
# that fans work out over it (forward kernels, experiments, the energy
# fold), the lock-free trace ring, the scenario engine and every stressor
# and fleet path it drives. CI runs this on every push.
race:
	$(GO) test -race ./...

# Telemetry smoke run: a fault-injection experiment with tracing, the slice
# time series and the event log all enabled, dumped into telemetry-smoke/
# (CI uploads the directory as an artifact).
telemetry-smoke:
	mkdir -p telemetry-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -packets 16384 -faults \
		-seu-rate 3e-9 -kill-engine 1 -kill-cycle 4000 \
		-trace-sample 0.02 -trace-out telemetry-smoke/traces.jsonl \
		-timeseries-out telemetry-smoke/timeseries.csv \
		-events-out telemetry-smoke/events.jsonl

# Governor smoke run: a VS fleet under a power cap set below its
# steady-state draw (4.9 W at load 0.9; cap 4.6 W), lifted mid-run. The
# greps assert the closed loop actually escalated and then recovered —
# governor transitions in the event log, convergence and a full-speed
# final rung in the report. Dumps land in governor-smoke/ (CI uploads the
# directory as an artifact).
governor-smoke:
	mkdir -p governor-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -load 0.9 -packets 32768 \
		-power-cap 4.6 -power-cap-lift 16384 -governor-report \
		-timeseries-out governor-smoke/timeseries.csv \
		-events-out governor-smoke/events.jsonl \
		| tee governor-smoke/report.txt
	grep -q governor_escalate governor-smoke/events.jsonl
	grep -q governor_deescalate governor-smoke/events.jsonl
	grep -q 'Converged under cap' governor-smoke/report.txt
	grep -q '0 (full)' governor-smoke/report.txt

# Composed scenario smoke run: the ISSUE's flagship compound spec — surge
# load, SEU faults, an engine kill, update churn and a power cap in ONE
# lookupsim run — executed at -j1 and -j8 and byte-compared (report, time
# series and event log), then grepped for the lifecycle the composition
# must produce. Dumps land in scenario-smoke/ (CI uploads the directory as
# an artifact).
SCENARIO_SPEC = load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11
scenario-smoke:
	mkdir -p scenario-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 1 \
		-scenario $(SCENARIO_SPEC) -governor-report -update-report \
		-timeseries-out scenario-smoke/timeseries.csv \
		-events-out scenario-smoke/events.jsonl \
		> scenario-smoke/report.txt
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 8 \
		-scenario $(SCENARIO_SPEC) -governor-report -update-report \
		-timeseries-out scenario-smoke/timeseries-j8.csv \
		-events-out scenario-smoke/events-j8.jsonl \
		> scenario-smoke/report-j8.txt
	cmp scenario-smoke/report.txt scenario-smoke/report-j8.txt
	cmp scenario-smoke/timeseries.csv scenario-smoke/timeseries-j8.csv
	cmp scenario-smoke/events.jsonl scenario-smoke/events-j8.jsonl
	grep -q 'load + faults + churn + power-cap' scenario-smoke/report.txt
	grep -q 'Recovered.*true' scenario-smoke/report.txt
	grep -q 'Completed.*true' scenario-smoke/report.txt
	grep -q engine_kill scenario-smoke/events.jsonl
	grep -q scrub_done scenario-smoke/events.jsonl
	grep -q update_commit scenario-smoke/events.jsonl

# Chaos smoke run: the crash-consistency flagship — surge load, SEU scrubs,
# churn, a power cap, and every control-plane fault class (crash-before-
# commit, reload stall, torn write, watchdog false positive) in ONE run —
# executed at -j1 and -j8 and byte-compared, then grepped for the recovery
# lifecycle: injected faults, journaled rollback AND replay, and a clean
# invariant audit. Dumps land in chaos-smoke/ (CI uploads the directory as
# an artifact). lookupsim exits nonzero if any post-recovery audit probe
# misforwards, so the smoke also gates the drop-never-misforward invariant.
CHAOS_SPEC = load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11
chaos-smoke:
	mkdir -p chaos-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 1 \
		-scenario $(CHAOS_SPEC) -governor-report -update-report \
		-timeseries-out chaos-smoke/timeseries.csv \
		-events-out chaos-smoke/events.jsonl \
		> chaos-smoke/report.txt
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 8 \
		-scenario $(CHAOS_SPEC) -governor-report -update-report \
		-timeseries-out chaos-smoke/timeseries-j8.csv \
		-events-out chaos-smoke/events-j8.jsonl \
		> chaos-smoke/report-j8.txt
	cmp chaos-smoke/report.txt chaos-smoke/report-j8.txt
	cmp chaos-smoke/timeseries.csv chaos-smoke/timeseries-j8.csv
	cmp chaos-smoke/events.jsonl chaos-smoke/events-j8.jsonl
	grep -q 'load + faults + chaos + churn + power-cap' chaos-smoke/report.txt
	grep -q 'Completed.*true' chaos-smoke/report.txt
	grep -q chaos_inject chaos-smoke/events.jsonl
	grep -q crash_before_commit chaos-smoke/events.jsonl
	grep -q recovery_rollback chaos-smoke/events.jsonl
	grep -q recovery_replay chaos-smoke/events.jsonl
	grep -q invariant_audit chaos-smoke/events.jsonl

# Energy smoke run: the chaos-composed flagship spec with per-event energy
# attribution on — executed at -j1 and -j8 and byte-compared (the energy
# report and the dyn_j/static_j/j_per_bit series columns are part of the
# determinism contract), then grepped for the attribution tables. Dumps land
# in energy-smoke/ (CI uploads the directory as an artifact).
ENERGY_SPEC = load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11
energy-smoke:
	mkdir -p energy-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 1 \
		-scenario $(ENERGY_SPEC) -energy-report \
		-timeseries-out energy-smoke/timeseries.csv \
		> energy-smoke/report.txt
	$(GO) run ./cmd/lookupsim -scheme VS -k 3 -j 8 \
		-scenario $(ENERGY_SPEC) -energy-report \
		-timeseries-out energy-smoke/timeseries-j8.csv \
		> energy-smoke/report-j8.txt
	cmp energy-smoke/report.txt energy-smoke/report-j8.txt
	cmp energy-smoke/timeseries.csv energy-smoke/timeseries-j8.csv
	grep -q 'Energy attribution' energy-smoke/report.txt
	grep -q 'Per-VNID dynamic energy' energy-smoke/report.txt
	grep -q 'Energy per forwarded bit' energy-smoke/report.txt
	head -1 energy-smoke/timeseries.csv | grep -q 'dyn_j,static_j,j_per_bit'

# Fleet smoke run: the N+1-spare failover flagship — eight networks packed
# over two devices plus a dark spare, BOTH actives crashed in sequence
# (first crash's victims live-migrate to the survivor, then the survivor
# dies too and the spare powers up to take the whole fleet), two flaky
# reconfigurers (retry/backoff ladder) and a brownout window in ONE run —
# executed at -j1 and -j8 and byte-compared, then grepped for the failover
# lifecycle: the crashes, the spare power-up, a failed-and-retried install,
# the journaled landing and its invariant audit, ending with every network
# recovered (no vn_degraded). Dumps land in fleet-smoke/ (CI uploads the
# directory as an artifact). lookupsim exits nonzero if any post-migration
# audit probe misforwards, so the smoke also gates drop-never-misforward
# under failover.
FLEET_SPEC = load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2
fleet-smoke:
	mkdir -p fleet-smoke
	$(GO) run ./cmd/lookupsim -scheme VS -k 8 -j 1 \
		-scenario $(FLEET_SPEC) \
		-timeseries-out fleet-smoke/timeseries.csv \
		-events-out fleet-smoke/events.jsonl \
		> fleet-smoke/report.txt
	$(GO) run ./cmd/lookupsim -scheme VS -k 8 -j 8 \
		-scenario $(FLEET_SPEC) \
		-timeseries-out fleet-smoke/timeseries-j8.csv \
		-events-out fleet-smoke/events-j8.jsonl \
		> fleet-smoke/report-j8.txt
	cmp fleet-smoke/report.txt fleet-smoke/report-j8.txt
	cmp fleet-smoke/timeseries.csv fleet-smoke/timeseries-j8.csv
	cmp fleet-smoke/events.jsonl fleet-smoke/events-j8.jsonl
	grep -q 'load + fleet + chaos' fleet-smoke/report.txt
	grep -q 'Completed.*true' fleet-smoke/report.txt
	grep -q device_crash fleet-smoke/events.jsonl
	grep -q spare_powerup fleet-smoke/events.jsonl
	grep -q migration_fail fleet-smoke/events.jsonl
	grep -q migration_commit fleet-smoke/events.jsonl
	grep -q invariant_audit fleet-smoke/events.jsonl
	! grep -q vn_degraded fleet-smoke/events.jsonl

# Short deterministic fuzz pass over the operator-facing spec parser (the
# full corpus run is `go test -fuzz=FuzzParse ./internal/scenario`).
fuzz-smoke:
	$(GO) test ./internal/scenario -run='^$$' -fuzz=FuzzParse -fuzztime=10s

# Short fuzz pass over the batched/scalar/trie lookup equivalence (the full
# run is `go test -fuzz=FuzzBatchedLookup ./internal/pipeline`).
fuzz-batch-smoke:
	$(GO) test ./internal/pipeline -run='^$$' -fuzz=FuzzBatchedLookup -fuzztime=10s

vet:
	$(GO) vet ./...

# gofmt gate over every tracked Go file: lists any file gofmt would
# rewrite and fails.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Known-vulnerability scan. govulncheck is not vendored; skip gracefully
# where it is not installed (CI installs it in the lint job).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# The gated benchmarks: the batched headline lookup bench and its scalar
# oracle reference. -count=3 with benchgate's min-per-name sheds scheduler
# noise on shared runners; the gate fails on a >10% ns/op regression or any
# allocs/op increase against the checked-in baseline. bench-gate.out is kept
# as a CI artifact.
GATE_BENCH = ^(BenchmarkPipelineLookup|BenchmarkPipelineLookupScalar)$$
bench-gate: build
	$(GO) test -run='^$$' -bench='$(GATE_BENCH)' -benchmem -count=3 . | tee bench-gate.out
	$(GO) run ./cmd/benchgate -baseline bench_baseline.json < bench-gate.out

# Regenerate the baseline after an intentional performance change.
bench-baseline: build
	$(GO) test -run='^$$' -bench='$(GATE_BENCH)' -benchmem -count=3 . | \
		$(GO) run ./cmd/benchgate -baseline bench_baseline.json -update
