# MC-Checker reproduction — common targets.

GO ?= go

.PHONY: all build test check fmt-check staticcheck race cover bench-smoke microbench fuzz fuzz-gen fuzz-shadow soak explore experiments table2 fig8 fig9 trace-smoke serve-smoke serve-bench corpus corpus-smoke fix-smoke shadow-smoke clean

all: build test check

# bench/ is its own module, so the root build and vet never compile it;
# vetting it here breaks the build when the stage API it calls changes.
build:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C bench vet ./...

test:
	$(GO) test ./...

# Full gate: formatting, vet, the test suite under the race detector, the
# determinism soak, the static-checker golden report, the auto-repair gate,
# and the detectors' reference gate.
check: fmt-check soak staticcheck fix-smoke shadow-smoke
	$(GO) vet ./...
	$(GO) test -race ./...

# Formatting gate: fails, listing the files, when gofmt would change any.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

# Reference gate for both detectors, under the race detector: over every
# bundled bug case and every injection pattern, the production
# cross-process detector (the shadow engine) and the production
# within-epoch detector (the indexed scan) must each render
# byte-identical reports to their pairwise references, and the
# cross-process detector must report the same signatures as the all-pairs
# oracle; both must also match their pairwise references byte for byte on
# the multi-origin region where every operation shares one (window,
# target) vector, the pairwise scan's worst case.
shadow-smoke:
	$(GO) test -race -run 'TestShadowPairwiseDifferentialSweep' .
	$(GO) test -race -run 'TestBenchShadowAgreement' ./internal/experiments

# Fuzz both production detectors on generated RMA programs against their
# pairwise references (byte-level), and the cross-process detector against
# the all-pairs oracle (signatures): any disagreement is a crasher.
fuzz-shadow:
	$(GO) test -fuzz FuzzShadowDifferential -fuzztime 30s .

# Static epoch-state checker over the bundled apps (buggy variants),
# compared against the checked-in golden report; exits 1 on drift.
# Regenerate with: make staticcheck GOLDEN_FLAGS=-update-golden
staticcheck:
	$(GO) run ./cmd/stanalyzer -check -define buggy=true \
		-golden internal/apps/testdata/static_golden.txt $(GOLDEN_FLAGS) internal/apps

# Determinism soak: repeat example apps under seed-varied perturbations
# (scheduler yields, legal RMA completion reordering) and fail if any
# iteration's report diverges from the first.
soak:
	$(GO) run ./cmd/mcchecker run -app emulate -fixed -soak 9
	$(GO) run ./cmd/mcchecker run -app ping-pong -fixed -soak 8
	$(GO) run ./cmd/mcchecker run -app jacobi -fixed -soak 8

race:
	$(GO) test -race ./...

# Schedule-space exploration demo: find the planted interleaving-dependent
# bug, dedup 1000 schedules to one violation, print a minimized reproducer
# (the leading `-` tolerates the exit-3 findings convention), then measure
# sweep throughput across worker counts.
explore:
	-$(GO) run ./cmd/mcchecker explore -app schedrace -schedules 1000
	$(GO) run ./cmd/mcbench -exp explore

cover:
	$(GO) test -cover ./internal/...

# One iteration of every go-test benchmark: proves each timing loop still
# runs, cheap enough for CI. End-to-end and per-layer times come from
# bench/ (BENCHMARK.json).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Causal-timeline smoke: run a bug case, analyze its traces recording a
# Chrome trace JSON timeline (with witness tracks), and validate the
# file's shape with mcviz. The leading `-` on run/analyze tolerates the
# exit-3 findings convention; the validation itself must pass strictly.
TRACE_TMP ?= /tmp/mcchecker-trace-smoke
trace-smoke:
	rm -rf $(TRACE_TMP) && mkdir -p $(TRACE_TMP)
	-$(GO) run ./cmd/mcchecker run -app emulate -trace $(TRACE_TMP)/traces
	-$(GO) run ./cmd/mcchecker analyze -trace $(TRACE_TMP)/analyze.json $(TRACE_TMP)/traces
	-$(GO) run ./cmd/mcchecker run -app ping-pong -trace $(TRACE_TMP)/run.json
	$(GO) run ./cmd/mcviz -check-trace $(TRACE_TMP)/analyze.json
	$(GO) run ./cmd/mcviz -check-trace $(TRACE_TMP)/run.json

# Daemon smoke: start `mcchecker serve`, submit a clean, a truncated and
# a poison job over real HTTP, assert healthy/degraded/failed results,
# then SIGTERM and assert a clean drain with exit 0.
serve-smoke:
	sh scripts/serve_smoke.sh

# Daemon load experiment: saturate the serve queue from concurrent
# clients (a fraction with damaged payloads) and print p50/p99 latency,
# shed rate, and throughput; fails if a poison job does not end failed,
# another job does not end done, or the daemon does not drain.
serve-bench:
	$(GO) run ./cmd/mcbench -exp serve

# The go-test micro benchmarks alone (full timing).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Fuzz the trace codec (the encode/decode round trip, the strict decoder
# and the salvage decoder), the in-memory trace sink, the front end, the
# fault-plan parser, the datatype runs and footprint tiling, each for
# FUZZTIME. CI's fuzz step is `make fuzz FUZZTIME=20s`, so a new fuzz
# target is listed here only.
# -fuzz takes one target per run, so each name is anchored.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadTraceSalvage$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzMemorySink$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEnd$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzRuns$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzTileRuns$$' -fuzztime $(FUZZTIME) ./internal/memory

# Fuzz the seeded RMA program generator: any seed must yield a program
# that simulates without deadlock and round-trips the trace codec.
fuzz-gen:
	$(GO) test -fuzz FuzzGenerate -fuzztime 30s ./internal/gen

# Differential engine scoring at full scale: dynamic, static, and
# explore engines over every registry bug case plus generated programs
# (3 per injection pattern) and a 200-program clean-generation gate.
# Writes the markdown detection matrix; exits 3 when the gate fails.
corpus:
	$(GO) run ./cmd/mcchecker corpus -matrix corpus_matrix.md

# CI-sized pass of the same gate under the race detector: one generated
# program per injection pattern, a small clean batch, fixed seeds, and
# the matrix artifact written to /tmp.
corpus-smoke:
	$(GO) test -race -run 'TestCorpus' ./internal/experiments ./cmd/mcchecker
	$(GO) run ./cmd/mcchecker corpus -programs 9 -clean 20 -schedules 6 \
		-matrix /tmp/mcchecker-corpus-matrix.md

# Auto-repair gate: `mcchecker fix` must patch every planted-bug corpus
# variant into a program that builds and whose dynamic and explore
# verdicts match its checked-in fixed variant. Exits non-zero if any
# repair fails to verify or any written patch fails to apply, one at a
# time, from the repository root; the unified patch diffs land in FIX_TMP
# for inspection (CI uploads them as an artifact).
FIX_TMP ?= /tmp/mcchecker-fix-patches
fix-smoke:
	rm -rf $(FIX_TMP) && mkdir -p $(FIX_TMP)
	$(GO) run ./cmd/mcchecker fix -diff-dir $(FIX_TMP)
	for p in $(FIX_TMP)/*.patch; do git apply --check "$$p" || exit 1; done

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/mcbench -exp all

table2:
	$(GO) run ./cmd/mcbench -exp table2 -paper-scale

fig8:
	$(GO) run ./cmd/mcbench -exp fig8 -ranks 64 -scale 1.0 -repeats 3

fig9:
	$(GO) run ./cmd/mcbench -exp fig9 -lu-n 192 -repeats 2

clean:
	$(GO) clean ./...
