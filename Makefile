# Tier-1 verification and the common dev loops in one place.
#   make            = build + test (the tier-1 gate)
#   make race       = full suite under the race detector
#   make bench      = every benchmark with allocation counts
GO ?= go

.PHONY: all build test race fuzz-smoke fuzz-batch-smoke vet fmt-check vuln bench bench-build bench-gate bench-baseline

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

# Compile and vet the end-to-end benchmark harness. scenbench is its own
# module (replace vrpower => ../), so `go build ./...` never compiles it; a
# repo API change that breaks the harness fails here instead.
bench-build:
	cd scenbench && $(GO) vet .

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
