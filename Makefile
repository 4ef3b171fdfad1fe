# Build/verify entry points. Tier-1 is the gate every change must keep
# green; tier-2 adds vet and the race detector (the parallel experiment
# harness makes -race meaningful); bench regenerates BENCH_results.json.

GO ?= go

.PHONY: all build test tier1 tier2 bench bench-check microbench json compare stream-bench stream-shard-bench live-smoke live-bench live-pipe-smoke live-pipe-bench live-tier-smoke live-tier-bench fleet-smoke fleet-bench

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

tier1: build test

tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

# Regenerate BENCH_results.json: per-experiment wall time, pass/fail,
# E10's executor ops/sec and memory metrics, the long-horizon streaming
# pipeline section (-stream), the checker-throughput sub-sections
# (sequential vs 4-way sharded vs ε-approximate verification), and the
# sharded executor's GOMAXPROCS × shards scaling curve (-shardsweep).
json:
	$(GO) run ./cmd/pscbench -json -stream -checkshards 4 -approx -shardsweep

# Regression gate: rerun all experiments and diff wall time, ops/sec, and
# memory (peak heap, allocs/op — gated upward) against the committed
# BENCH_results.json; exits nonzero past 20% in the regressing direction,
# or when a scaling-curve cell that beat sequential in the baseline
# drops below 1.0×.
compare:
	$(GO) run ./cmd/pscbench -compare BENCH_results.json -stream -checkshards 4 -approx -shardsweep

# Long-horizon streaming pipeline measurement alone: 10^6 operations
# verified online in O(window) memory, peak heap and allocs/op printed.
stream-bench:
	$(GO) run ./cmd/pscbench -stream -run E10

# Checker-throughput comparison: capture one multi-register command
# stream, replay it through the sequential, 4-way sharded, and
# ε-approximate checkers, gating verdict equality always and the 4x
# speedup whenever GOMAXPROCS and the op count make it meaningful.
stream-shard-bench:
	$(GO) run ./cmd/pscbench -stream -checkshards 4 -approx -run E10

# Experiment-level benchmarks (E1–E16 plus substrate micro-benchmarks).
bench:
	$(GO) test -run XXX -bench . -benchtime=1x .

# The benchmark harness in bench/ is a module of its own, so `go build
# ./...` and `go test ./...` at the root do not compile it: this target
# does, and runs its (fast, clock-free) tests, so a change under internal/
# that breaks the harness's compatibility surface fails here instead of
# failing silently at the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Scheduler/dispatch micro-benchmarks: indexed fast path vs the linear
# differential oracle.
microbench:
	$(GO) test -run XXX -bench 'BenchmarkSchedulerStep|BenchmarkDispatchRouting' ./internal/exec/

# Time-boxed live-runtime smoke: serve the register over loopback TCP
# under jittered clocks, drive a short closed-loop load, and require zero
# online-linearizability violations and a clean shutdown. CI runs this.
live-smoke:
	$(GO) run ./cmd/pscserve -duration 2s -rate 120 -clock jitter -slack 3ms -v

# Pipelined high-throughput smoke: open-loop load across 32 register
# instances with sharded verification, requiring zero violations, zero
# recorder drops, and a conservative completed-ops floor (the headline
# run does ~24k ops/s on one idle core; the floor tolerates a slow,
# shared CI host). CI runs this time-boxed.
live-pipe-smoke:
	$(GO) run ./cmd/pscserve -duration 3s -pipeline 8 -registers 32 -clients 4 -rate 1500 \
		-clock jitter -slack 5ms -checkshards 4 -gogc 1000 -minops 9000

# Closed-loop latency baseline: one op in flight per client, recorded as
# the live_closed section of BENCH_results.json (compared by
# `make compare` via pscbench -compare). This is the seed run's shape:
# per-op latency with no pipelining to hide it.
live-bench:
	$(GO) run ./cmd/pscserve -duration 8s -rate 200 -clock jitter -slack 2ms -seed 1 \
		-json -jsonsection live_closed

# Pipelined throughput headline: the live section of BENCH_results.json.
# Open-loop load (6 clients × 16 in flight) over 64 register instances on
# one TCP connection per node pair, every operation verified online by
# the exact sharded checker — ops_per_sec gates downward in
# `make compare`, recorder drops gate at zero.
live-pipe-bench:
	$(GO) run ./cmd/pscserve -duration 8s -pipeline 16 -registers 64 -clients 6 -rate 4000 \
		-clock jitter -slack 5ms -checkshards 4 -gogc 1000 -seed 1 -json -jsonsection live

# Mixed-tier smoke: half the registers serve algorithm S (linearizable),
# half algorithm L (sequentially consistent, reads 2ε cheaper), each tier
# verified online against its own specification. ε is widened so the
# tier discount clears wall-clock noise; the ops floor keeps a wedged
# tier from passing silently. CI runs this.
live-tier-smoke:
	$(GO) run ./cmd/pscserve -duration 2s -rate 120 -registers 8 -tiers mix:0.5 \
		-clock jitter -eps 2ms -slack 3ms -minops 100

# Multi-process fleet smoke: a control plane spawns one pscnode OS
# process per node, drives client load, and injects all four fault
# kinds — SIGKILL (auto-replaced), a network partition, a delay spike
# past d2, and a clock step past ε — each classified against its
# scripted expectation. Exits nonzero on any expectation mismatch, any
# checker violation not explained by a lossy fault, any recorder drop,
# or a failed replacement. CI runs this time-boxed.
fleet-smoke:
	$(GO) run ./cmd/pscfleet -duration 5s -rate 120 \
		-chaos "crash@700ms:1; partition@2s+700ms:0-2; delay@3.2s+500ms:2+15ms; clockstep@4.2s+400ms:0+6ms"

# Seeded fleet chaos benchmark: the live_fleet section of
# BENCH_results.json. The default 6-fault script (every kind, one
# tolerated and one flagged variant where the kind has a band) over a
# 12 s load; `make compare` gates ops/s downward, the verdict sticky,
# recorder drops at zero, and every chaos outcome against its scripted
# expectation.
fleet-bench:
	$(GO) run ./cmd/pscfleet -duration 12s -seed 1 -json BENCH_results.json

# Mixed-tier benchmark: the live_tiered section of BENCH_results.json.
# Seeded closed-loop load over 8 registers split lin/seq, recording
# per-tier latency percentiles and the measured seq read discount —
# `make compare` gates ops/s downward, the verdict sticky, and the
# discount against the configured ε.
live-tier-bench:
	$(GO) run ./cmd/pscserve -duration 8s -rate 200 -registers 8 -tiers mix:0.5 \
		-clock jitter -eps 2ms -slack 2ms -seed 1 -json -jsonsection live_tiered
