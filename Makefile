# Build/verify entry points. Tier-1 is the gate every change must keep
# green; tier-2 adds vet and the race detector (the parallel experiment
# harness makes -race meaningful). Performance is measured and gated by
# the benchmark in bench/ (`bash bench/run.sh`, BENCHMARK.json);
# bench-check and bench-smoke keep it building and correct.

GO ?= go

.PHONY: all build test tier1 tier2 model-guard time-guard doc-guard ci-guard lines bench-check bench-smoke live-smoke live-pipe-smoke live-tier-smoke fleet-smoke

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
# in a binary, the fleet or E17; nothing under internal/ may set
# GOMAXPROCS for the whole process outside a test; and the simulated world
# is built and run in one place — outside internal/core (and the frozen
# bench/), no switch maps a model name to a builder (core.Build does) and
# no loop runs a Net until its clients finish (Net.RunUntil does); and a
# live register store is assembled in one place — outside internal/live
# (and bench/), no non-test code builds a runtime or server by hand
# (live.Deploy does); and the plane reaches each daemon by one channel, its
# stdin and stdout, so no non-test fleet code listens or dials a socket; and
# core.Context is implemented once, by the node engine in internal/core
# that the simulator and the live runtime both host, so no non-test code
# elsewhere defines a SetTimer method; and the checker runs on its
# caller's goroutine, so no non-test code in internal/linearize starts one;
# and the sharded executor's lanes share nothing during a round, so no
# non-test code in internal/exec uses atomics or yields to a peer; and the
# plane's policy is a pure transition function, so internal/fleet/policy.go
# imports no clock, lock, process, IO or network package (Plane drives it);
# and the plane starts every node process, the spare and a cold start
# alike, through one starter, so non-test internal/fleet holds exactly one
# osexec.Command( call.
model-guard:
	@! grep -rnE 'MaxStates: *1 *<< *18|NewSeqOnline\(|Widen:.*[Ee]ps' --include='*.go' --exclude='*_test.go' \
		cmd internal/fleet internal/experiments/e17.go \
		|| { echo "model-guard: checker policy outside internal/live (use live.Model / live.NewVerdict)"; exit 1; }
	@! grep -rnE 'runtime\.GOMAXPROCS\( *[^0) ]' --include='*.go' --exclude='*_test.go' internal \
		|| { echo "model-guard: process-wide GOMAXPROCS set under internal/"; exit 1; }
	@! grep -rnE 'case +"(timed|clock|mmt)"|for[[:space:]].*Sys\.Now\(\)[[:space:]]*<' --include='*.go' --exclude='*_test.go' \
		cmd examples internal | grep -v '^internal/core/' \
		|| { echo "model-guard: model switch or run loop outside internal/core (use core.Build / Net.RunUntil)"; exit 1; }
	@! grep -rnE 'live\.New\(|live\.NewServer\(|SetRegisterFactory|SetTiers' --include='*.go' --exclude='*_test.go' \
		cmd examples internal | grep -v '^internal/live/' \
		|| { echo "model-guard: live store assembled outside internal/live (use live.Deploy)"; exit 1; }
	@! grep -rnE 'net\.(Listen|Dial)\(' --include='*.go' --exclude='*_test.go' internal/fleet \
		|| { echo "model-guard: a socket between plane and daemon (the control channel is the daemon's stdin/stdout)"; exit 1; }
	@! grep -rnE '\) SetTimer\(' --include='*.go' --exclude='*_test.go' cmd examples internal | grep -v '^internal/core/' \
		|| { echo "model-guard: core.Context implemented outside internal/core (host the algorithm in a core.Composite)"; exit 1; }
	@! grep -rnE '^[[:space:]]*go[[:space:]]' --include='*.go' --exclude='*_test.go' internal/linearize \
		|| { echo "model-guard: a goroutine in the checker (internal/linearize runs on its caller's goroutine)"; exit 1; }
	@! grep -rnE '"sync/atomic"|runtime\.Gosched' --include='*.go' --exclude='*_test.go' internal/exec \
		|| { echo "model-guard: atomics or yields in the executor (lanes share nothing during a round; the join is the only synchronization)"; exit 1; }
	@! grep -nE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"(time|sync|os|io|net)(/[^"]*)?"' internal/fleet/policy.go \
		|| { echo "model-guard: the plane's policy imports a clock, lock, process, IO or network package (it is a pure function; Plane does the IO)"; exit 1; }
	@test "$$(grep -rnE 'osexec\.Command\(' --include='*.go' --exclude='*_test.go' internal/fleet | wc -l)" -eq 1 \
		|| { echo "model-guard: internal/fleet must start node processes through one osexec.Command( call (Plane.start)"; exit 1; }

# The simulated world never reads the wall clock: under internal/, outside
# the two wall-clock packages (internal/live, internal/fleet), the
# simtime↔wall conversion and E17 (which runs the live runtime), no non-test
# file imports "time" or reads the process's heap, so nothing an experiment
# prints can depend on the host. (The second clause — no raw
# time.Now/Sleep/... in live and fleet outside one seam file — comes with
# the seam, ROADMAP item 3.)
time-guard:
	@! grep -rnE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"time"|runtime\.(ReadMemStats|GC)\(' \
		--include='*.go' --exclude='*_test.go' internal \
		| grep -vE '^internal/(live|fleet)/|^internal/simtime/wall\.go:|^internal/experiments/e17\.go:' \
		|| { echo "time-guard: wall clock or heap reading in the simulated world (see the lines above)"; exit 1; }

# The working docs name only what exists: every `make <target>` cited in
# README.md, DESIGN.md, EXPERIMENTS.md and the verify skill is a target of
# this file, none of them mentions a retired measuring path (history
# lives in docs/history.md and CHANGES.md, which this does not read; the
# retired names are spelled with a bracket so that a grep of the tree for
# them finds only uses), and README's Quickstart is examples/quickstart,
# byte for byte, so the code it shows compiles and its test runs it.
DOCS = README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
doc-guard:
	@for t in $$(grep -ohE -e '`make [a-z][a-z0-9-]*' -e '^make [a-z][a-z0-9-]*( +#| *$$)' $(DOCS) | sed 's/.*make //; s/[ #]*$$//' | sort -u); do \
		grep -qE "^$$t:" Makefile || { echo "doc-guard: \`make $$t\` is cited in the docs but is not a Makefile target"; exit 1; }; \
	done
	@! grep -nE -e '-shard[s]weep|Throughput[C]ell|make (bench|microbench)([^-a-z]|$$)|(^|[^_a-z])bench_test\.go' $(DOCS) \
		|| { echo "doc-guard: the docs cite a retired measuring path (see the lines above)"; exit 1; }
	@awk '/^## Quickstart/ { q = 1 } q && /^```/ { if (g) exit; g = 1; next } g' README.md | diff -u - examples/quickstart/main.go \
		|| { echo "doc-guard: README's Quickstart differs from examples/quickstart/main.go (see the diff above)"; exit 1; }

# No CI step selects nothing: `go test -run X` passes silently when X
# matches no test, so for every -run pattern in the workflow (except '^$',
# which selects nothing on purpose) `go test -list` must print a test in
# each package on its line, and each of the pattern's top-level
# |-alternatives (a pattern with a group is taken whole) must name a test
# in one of them, so a renamed test cannot leave a step running its
# neighbours alone.
WORKFLOW = .github/workflows/ci.yml
ci-guard:
	@set -f; grep -oE "go test [^#]*-run ('[^']*'|[^ ']+).*" $(WORKFLOW) | while read -r line; do \
		pat=$$(echo "$$line" | sed -E "s/.*-run ('([^']*)'|([^ ']+)).*/\2\3/"); \
		[ "$$pat" = '^$$' ] && continue; \
		pkgs=$$(echo "$$line" | grep -oE '\./[^ ]*'); \
		for p in $$pkgs; do \
			$(GO) test -list "$$pat" $$p | grep -qE '^(Test|Benchmark|Example|Fuzz)' \
				|| { echo "ci-guard: -run '$$pat' selects no test in $$p ($(WORKFLOW))"; exit 1; }; \
		done; \
		case "$$pat" in *'('*) alts=$$pat;; *) alts=$$(echo "$$pat" | tr '|' ' ');; esac; \
		for alt in $$alts; do \
			$(GO) test -list "$$alt" $$pkgs | grep -qE '^(Test|Benchmark|Example|Fuzz)' \
				|| { echo "ci-guard: '$$alt' in -run '$$pat' names no test in $$pkgs ($(WORKFLOW))"; exit 1; }; \
		done; \
	done

# Size ledger (CHANGES.md, ROADMAP's size row): code, comment and blank
# lines of the non-test Go outside bench/ and .bench_build/, per package
# directory and in total. An empty line is blank, a line whose first
# non-blank characters are // is a comment, every other line is code.
# Informational: nothing gates on it.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 awk ' \
		{ d = FILENAME; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		  k = $$0 == "" ? "blank" : $$0 ~ /^[ \t]*\/\// ? "comment" : "code"; \
		  n[d, k]++; n["total", k]++; dirs[d] = 1 } \
		function row(d) { return sprintf("%-24s %6d %6d %8d %6d", d, \
		  n[d, "code"] + n[d, "comment"] + n[d, "blank"], n[d, "code"], n[d, "comment"], n[d, "blank"]) } \
		END { printf "%-24s %6s %6s %8s %6s\n", "package", "lines", "code", "comment", "blank"; \
		  for (d in dirs) print row(d) | "sort"; close("sort"); print row("total") }'

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
# under drifting clocks, drive a short closed-loop load, and require zero
# online-linearizability violations and a clean shutdown. CI runs this.
live-smoke:
	$(GO) run ./cmd/pscserve -duration 2s -rate 120 -clock drift -slack 3ms -v

# Pipelined high-throughput smoke: open-loop load across 32 register
# instances, each checked online by its own automaton on the recorder's
# consumer, requiring zero violations, zero recorder drops, and a
# conservative completed-ops floor (the floor tolerates a slow, shared CI
# host). CI runs this time-boxed.
live-pipe-smoke:
	$(GO) run ./cmd/pscserve -duration 3s -pipeline 8 -registers 32 -clients 4 -rate 1500 \
		-clock drift -slack 5ms -gogc 1000 -minops 9000

# Mixed-tier smoke: half the registers serve algorithm S (linearizable),
# half algorithm L (sequentially consistent, reads 2ε cheaper), each tier
# verified online against its own specification. ε is widened so the
# tier discount clears wall-clock noise; the ops floor keeps a wedged
# tier from passing silently. CI runs this.
live-tier-smoke:
	$(GO) run ./cmd/pscserve -duration 2s -rate 120 -registers 8 -tiers mix:0.5 \
		-clock drift -eps 2ms -slack 3ms -minops 100

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
