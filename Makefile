# Build/verify entry points. Tier-1 is the gate every change must keep
# green; tier-2 adds vet and the race detector (the parallel experiment
# harness makes -race meaningful). Performance is measured and gated by
# the benchmark in bench/ (`bash bench/run.sh`, BENCHMARK.json);
# bench-check and bench-smoke keep it building and correct.

GO ?= go

.PHONY: all build test tier1 tier2 model-guard time-guard doc-guard bench-check bench-smoke live-smoke live-pipe-smoke live-tier-smoke fleet-smoke

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

tier1: build test

tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

# The model is declared once: the checker policy a live deployment judges
# with (state budget, ε-built window relaxation, the seq tier's automaton)
# lives in internal/live's model and verdict files, so it must not reappear
# in a binary, the fleet or E17; and nothing under internal/ may set
# GOMAXPROCS for the whole process outside a test.
model-guard:
	@! grep -rnE 'MaxStates: *1 *<< *18|NewSeqOnline\(|Widen:.*[Ee]ps' --include='*.go' --exclude='*_test.go' \
		cmd internal/fleet internal/experiments/e17.go \
		|| { echo "model-guard: checker policy outside internal/live (use live.Model / live.NewVerdict)"; exit 1; }
	@! grep -rnE 'runtime\.GOMAXPROCS\( *[^0) ]' --include='*.go' --exclude='*_test.go' internal \
		|| { echo "model-guard: process-wide GOMAXPROCS set under internal/"; exit 1; }

# The simulated world never reads the wall clock: under internal/, outside
# the two wall-clock packages (internal/live, internal/fleet), the
# simtime↔wall conversion and E17 (which runs the live runtime), no non-test
# file imports "time" or reads the process's heap, so nothing an experiment
# prints can depend on the host. (ROADMAP item 4's second clause — no raw
# time.Now/Sleep/... in live and fleet outside one seam file — comes with
# the seam.)
time-guard:
	@! grep -rnE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"time"|runtime\.(ReadMemStats|GC)\(' \
		--include='*.go' --exclude='*_test.go' internal \
		| grep -vE '^internal/(live|fleet)/|^internal/simtime/wall\.go:|^internal/experiments/e17\.go:' \
		|| { echo "time-guard: wall clock or heap reading in the simulated world (see the lines above)"; exit 1; }

# The working docs name only what exists: every `make <target>` cited in
# README.md, DESIGN.md, EXPERIMENTS.md and the verify skill is a target of
# this file, and none of them mentions a retired measuring path (history
# lives in docs/history.md and CHANGES.md, which this does not read; the
# retired names are spelled with a bracket so that a grep of the tree for
# them finds only uses).
DOCS = README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
doc-guard:
	@for t in $$(grep -ohE -e '`make [a-z][a-z0-9-]*' -e '^make [a-z][a-z0-9-]*( +#| *$$)' $(DOCS) | sed 's/.*make //; s/[ #]*$$//' | sort -u); do \
		grep -qE "^$$t:" Makefile || { echo "doc-guard: \`make $$t\` is cited in the docs but is not a Makefile target"; exit 1; }; \
	done
	@! grep -nE -e '-shard[s]weep|Throughput[C]ell|make (bench|microbench)([^-a-z]|$$)|(^|[^_a-z])bench_test\.go' $(DOCS) \
		|| { echo "doc-guard: the docs cite a retired measuring path (see the lines above)"; exit 1; }

# The benchmark harness in bench/ is a module of its own, so `go build
# ./...` and `go test ./...` at the root do not compile it: this target
# does, and runs its (fast, clock-free) tests, so a change under internal/
# that breaks the harness's compatibility surface fails here instead of
# failing silently at the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One short window of every benchmark workload: run.sh builds the harness
# (the later runs reuse its build cache), each run checks its own outputs,
# and the target fails unless every run's last line says "correct":true.
bench-smoke:
	@for w in closed_floor pipe_read pipe_write sim_models check_replay fleet_crash; do \
		last=$$(bash bench/run.sh -workload $$w -seed 1 -seconds 3 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "bench-smoke: $$w failed"; exit 1;; esac; \
	done

# Time-boxed live-runtime smoke: serve the register over loopback TCP
# under jittered clocks, drive a short closed-loop load, and require zero
# online-linearizability violations and a clean shutdown. CI runs this.
live-smoke:
	$(GO) run ./cmd/pscserve -duration 2s -rate 120 -clock jitter -slack 3ms -v

# Pipelined high-throughput smoke: open-loop load across 32 register
# instances with sharded verification, requiring zero violations, zero
# recorder drops, and a conservative completed-ops floor (the floor
# tolerates a slow, shared CI host). CI runs this time-boxed.
live-pipe-smoke:
	$(GO) run ./cmd/pscserve -duration 3s -pipeline 8 -registers 32 -clients 4 -rate 1500 \
		-clock jitter -slack 5ms -checkshards 4 -gogc 1000 -minops 9000

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
