# Developer / CI entry points. `make check` is the gate: formatting, vet,
# the full test suite under the race detector (the concurrent trial runner
# in internal/sim must stay race-clean), the codec fuzz seed corpus, the
# worker-count determinism contract, and a build and vet of the perfbench
# benchmark module.
#
# Release checklist: `make check` then `make gate` — the regression
# sentinel reruns every experiment and compares the science against the
# committed bench/ baselines; regenerate them with `make bench-series`
# only when a science change is intended, and say why in the commit.

GO ?= go
FUZZTIME ?= 15s
BENCHTIME ?= 1s
# gate writes its candidate artifacts here; empty means a throwaway tmpdir.
GATEDIR ?=

.PHONY: check fmt vet lint test race bench benchcmp bench-series gate build benchmod benchtest cover fuzz fuzzseed determinism

check: fmt vet build benchmod lint race fuzzseed determinism

build:
	$(GO) build ./...

# perfbench/ is a Go module of its own, so the repository's `go build
# ./...` never compiles it; build and vet it here so an internal API
# change cannot silently break the benchmark.
benchmod:
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

# perfbench's own test suite (under a minute). Its
# TestTracedRunsReproduceAndBypass is the only check that the coding_mix
# workload still reaches the link, fountain and RS send layers and
# reproduces its round and delivery counts.
benchtest:
	cd perfbench && $(GO) test ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deeper static analysis, gated on the tools being installed: CI images
# without staticcheck/govulncheck skip with a notice instead of failing,
# and nothing is downloaded implicitly.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks across all packages in benchstat-compatible form, archived to
# bench.txt so successive runs can be compared (`benchstat old.txt bench.txt`).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | tee bench.txt

# Before/after benchmark comparison: reruns the suite into bench.new.txt
# and diffs it against the archived bench.txt. Uses benchstat when it is
# installed (same opt-in policy as lint); otherwise falls back to a plain
# diff of the benchmark lines.
benchcmp:
	@test -f bench.txt || { echo "benchcmp: no bench.txt — run 'make bench' on the old tree first"; exit 1; }
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | tee bench.new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.txt bench.new.txt; \
	else \
		echo "benchcmp: benchstat not installed, falling back to diff"; \
		grep '^Benchmark' bench.txt >bench.old.flat; \
		grep '^Benchmark' bench.new.txt >bench.new.flat; \
		diff bench.old.flat bench.new.flat || true; \
		rm -f bench.old.flat bench.new.flat; \
	fi

# Regenerate the committed baseline series under bench/: every
# experiment's BENCH_<name>.json (plus its metrics delta) at default
# scale. Deterministic for a given seed, so `git diff bench/` after a
# change shows exactly which trajectories moved.
bench-series:
	$(GO) run ./cmd/witag-bench -experiment all -json bench

# Regression sentinel: rerun every experiment into a scratch dir and gate
# the result against the committed bench/ baselines (DESIGN.md §12).
# Deterministic metrics must match exactly and science series must stay
# inside the statistical tolerance band; wall-clock budget is off (-budget
# 0) because the committed baselines were timed on a different machine —
# the PROF profiles are still structure-checked (every phase must keep
# firing). The candidate run logs to LOG_bench.jsonl in the same dir —
# both a gate that logging stays non-perturbing (the science must still
# match the baselines byte-for-byte) and the provenance CI uploads
# alongside the RUNS.jsonl ledger the run appends. Set GATEDIR to keep
# the candidate artifacts (CI uploads them).
gate:
	@out='$(GATEDIR)'; \
	if [ -z "$$out" ]; then out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT; fi && \
	$(GO) run ./cmd/witag-bench -experiment all -json "$$out" -log "$$out"/LOG_bench.jsonl -timeline >/dev/null && \
	$(GO) run ./cmd/witag-gate -baseline bench -candidate "$$out" -budget 0

# Whole-repo coverage profile plus the one-line total.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1

# Time-boxed coverage-guided fuzzing of the frame codec and the erasure
# coders; `make fuzzseed` replays just the checked-in corpus (fast,
# deterministic — the CI form).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFountainDecode -fuzztime=$(FUZZTIME) ./internal/coding
	$(GO) test -run='^$$' -fuzz=FuzzRSDecode -fuzztime=$(FUZZTIME) ./internal/coding

fuzzseed:
	$(GO) test -run='^Fuzz' ./internal/core ./internal/coding

# The worker-count determinism contract, for results AND for the
# observability layer: metrics snapshots must be identical for 1 vs N
# workers, attaching instrumentation (or a logging campaign scope, or a
# timeline) must not change any output, canonicalized campaign logs and
# logical timeline exports must be worker-count invariant, and concurrent
# campaigns must stay byte-identical to solo runs with fully disjoint
# metrics. At the CLI surface, witag-sim and witag-bench stdout must be
# byte-identical at -parallel 1 and -parallel 4
# (TestStdoutDeterministicAcrossWorkerCounts).
determinism:
	$(GO) test -run='DeterministicAcrossWorkerCounts|MetricsIdenticalAcrossWorkerCounts|InstrumentationDoesNotPerturbResults|LoggingDoesNotPerturbResults|TimelineDoesNotPerturbResults|TimelineWindowsIdenticalAcrossWorkerCounts|ConcurrentCampaignsIsolated' ./internal/experiments ./internal/sim ./cmd/witag-sim ./cmd/witag-bench
