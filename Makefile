# Build and verification targets. `make check` is the full gate:
# everything CI runs, including the race detector over the concurrent
# packages (the runner's worker pool and the simulation scheduler).

GO ?= go

.PHONY: all build test race vet check cover bench bench-diff bench-diff-replay fuzz scenario-goldens cluster-smoke wal-smoke stream-smoke profile clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package. The scheduler's baton-pass handoff
# and the runner's worker pool are the concurrency hot spots, but the
# determinism tests in internal/experiments only mean something if they
# also hold under the race detector, so the whole tree runs.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# The scenario-golden gate: render every preset through the declarative
# spec path and diff byte-for-byte against the committed golden files.
# This is the refactor-safety net — any change to the spec interpreter,
# the runner's cache keys, or the renderers that alters published
# output fails here first.
scenario-goldens:
	$(GO) test -run TestGoldenOutput -count=1 ./internal/experiments

check: build vet race test scenario-goldens

# The cluster gate: one coordinator plus two in-process workers run a
# fig8-style sweep through the async job API. Passing means the
# distributed report is byte-identical to a serial render, every task
# settled done, and at least one blob crossed peers (a capture computed
# on one worker, replayed from the shared store by the other — asserted
# via the peer-fetch metrics).
cluster-smoke:
	$(GO) test -run 'TestClusterEndToEnd|TestWorkerDrainReleases' -count=1 -v ./internal/cluster

# The durability gate: the crash-point matrix. A sweep job's journal is
# killed mid-flight at several append counts (submission-only durable,
# task graph + one claim durable, deep mid-sweep), a successor boots
# over the same WAL dir, and every recovered run must finish with a
# report byte-identical to a serial render. The wal package's own
# fault-injection tests (every-prefix recovery, short writes, torn
# tails) ride along.
wal-smoke:
	$(GO) test -run 'TestCrashRestartEndToEnd|TestJournal' -count=1 -v ./internal/cluster
	$(GO) test -count=1 ./internal/wal

# The stream gate: multi-phase query streams must be equivalent to
# direct execution everywhere. Runs the core equivalence suite (direct
# vs recorded vs per-segment replay, including live-recorded update
# phases and the legacy warm-pair lowering), the experiments job-chain
# equivalence at 1 and 4 workers, the capture-per-stream trace-store
# round trip, and the mixedstreams golden at -jobs 1 vs parallel.
# Blocking in CI.
stream-smoke:
	$(GO) test -count=1 -run 'TestStreamReplayMatchesExecution|TestStreamReplaySweeps|TestLegacyPhasesEquivalence|TestReplayStreamUnsegmented|TestRunStreamAnswers' -v ./internal/core
	$(GO) test -count=1 -run 'TestStreamSpecMatchesDirectExecution|TestStreamTraceStoreServesPhases|TestGoldenOutput' ./internal/experiments

# Profile a named preset (default fig6) under the CPU and heap
# profilers. The capture, trace-decode and replay stages run under
# pprof labels ("stage" = capture | decode | replay), so each stage's
# share of the CPU is measurable on its own:
#   go tool pprof -tagfocus stage=replay cpu.pprof
PROFILE_EXP ?= fig6
PROFILE_SCALE ?= 0.01
profile:
	$(GO) run ./cmd/dssmem -exp $(PROFILE_EXP) -scale $(PROFILE_SCALE) \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (try: go tool pprof -tags cpu.pprof)"

# Fuzz the input decoders: the scenario decoder (decode -> validate ->
# canonicalize -> re-decode must round-trip or fail cleanly with a
# field-path error), the trace decoder (per-event, batched, and
# streamed decode must accept the same inputs, yield the same events,
# and never panic or silently short-replay a damaged blob), and the WAL
# segment scanner (opening an arbitrary byte soup must never panic, and
# whatever it recovers must re-encode to a well-formed log). CI runs a
# short smoke; crank FUZZTIME locally for a real campaign.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzScenarioDecode -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run NONE -fuzz FuzzTraceChunkDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal

# Coverage gate for the observability subsystem: internal/metrics is
# the one package every other layer reports through, so its own tests
# must stay thorough. Fails when statement coverage drops below 85%.
COVER_MIN ?= 85
cover:
	$(GO) test -coverprofile=cover.out ./internal/metrics
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); printf "internal/metrics coverage: %s%% (floor %s%%)\n", $$3, min; \
		if ($$3 + 0 < min) { exit 1 } }'
	@rm -f cover.out

# Benchmark snapshot: the per-figure experiment benchmarks (one cold
# iteration each — the runner's result cache would otherwise serve
# repeats and measure nothing) plus the per-reference hot-path
# microbenchmarks, folded into a committed JSON file for cross-PR diffs.
BENCH_JSON ?= BENCH_pr10.json
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime 1x . > bench_output.txt
	$(GO) test -run NONE -bench . -benchmem ./internal/machine ./internal/sched >> bench_output.txt
	$(GO) test -run NONE -bench 'BenchmarkReplay' -benchmem -benchtime 5x . >> bench_output.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) bench_output.txt
	@echo "wrote $(BENCH_JSON)"

# Comparison mode: re-run the benchmarks and diff them against the
# committed baseline snapshot, failing on any >10% ns/op regression.
# Single-iteration experiment benchmarks are noisy, so CI runs this as
# a non-blocking job — a red result is a prompt to look, not a gate.
BENCH_BASELINE ?= BENCH_pr10.json
bench-diff:
	$(GO) test -run NONE -bench . -benchmem -benchtime 1x . > bench_output.txt
	$(GO) test -run NONE -bench . -benchmem ./internal/machine ./internal/sched >> bench_output.txt
	$(GO) run ./cmd/benchjson -diff $(BENCH_BASELINE) bench_output.txt

# The replay gate: the BenchmarkReplay* family measures the replay fast
# path this repo's sweeps live on, runs multiple iterations, and is
# stable enough to block CI on. A >10% ns/op regression against the
# committed snapshot fails the build; everything else stays advisory in
# bench-diff above.
REPLAY_BASELINE ?= BENCH_pr10.json
bench-diff-replay:
	$(GO) test -run NONE -bench 'BenchmarkReplay' -benchmem -benchtime 5x . > bench_replay_output.txt
	$(GO) run ./cmd/benchjson -diff $(REPLAY_BASELINE) -only '^BenchmarkReplay' bench_replay_output.txt

clean:
	$(GO) clean ./...
	rm -f bench_output.txt bench_replay_output.txt cover.out cpu.pprof mem.pprof
