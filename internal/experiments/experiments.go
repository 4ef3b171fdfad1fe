// Package experiments regenerates every quantitative claim of the paper as
// a table or figure series (the per-experiment index of DESIGN.md and the
// paper-vs-measured record of EXPERIMENTS.md).
//
// The paper is a theory paper and prints no empirical tables; each
// experiment here measures one of its theorems/lemmas over seeded
// adversarial executions:
//
//	E1  Lemma 6.1     — algorithm L costs in D_T (Table 1)
//	E2  Lemma 6.2     — algorithm S superlinearizability and costs (Table 2)
//	E3  Theorem 6.5   — transformed S in D_C (Table 3)
//	E4  §6.3          — comparison vs the [10] baseline (Table 4, Figure 1)
//	E5  Theorem 4.7   — simulation-1 real-time preservation (Table 5)
//	E6  Lemma 4.5     — message clock-time delays (Figure 2)
//	E7  §7.2          — receive-buffer cost vs d1/2ε (Figure 3)
//	E8  Theorem 5.1/5.2 — simulation-2 output shift (Table 6, Figure 4)
//	E9  §6.2/§7.2     — verification matrix with mutations (Table 7)
//	E10 —             — events and operations by model and size (Figure 5)
//	E11 §6 remark     — other shared-memory objects (Table 8)
//	E12 §1/§7.3       — failures explored (Table 9)
//	E13 §1/§5         — clock granularity: TICK period sweep (Figure 6)
//	E14 ref [2]       — sequential consistency vs linearizability (Table 10)
//	E15 §1 intro      — failure detection timeout margins (Table 11)
//	E16 §4.3          — real-time vs internal specifications (Table 12)
//	E17 §6.1/§6.2     — tiered keyed store live: L-tier read discount (Table 13)
package experiments

import (
	"fmt"
	"strings"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/workload"
)

// Result is one experiment's rendered output.
type Result struct {
	// ID is the experiment identifier, e.g. "E3".
	ID string
	// Title names the paper claim being reproduced.
	Title string
	// Output is the rendered table or series.
	Output string
	// Failures lists assertion violations; empty means the paper's claim
	// held on every measured row.
	Failures []string
}

// Pass reports whether every assertion held.
func (r Result) Pass() bool { return len(r.Failures) == 0 }

// String renders the result for the harness.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	b.WriteString(r.Output)
	if r.Pass() {
		b.WriteString("RESULT: PASS\n")
	} else {
		fmt.Fprintf(&b, "RESULT: FAIL (%d violations)\n", len(r.Failures))
		for _, f := range r.Failures {
			b.WriteString("  - " + f + "\n")
		}
	}
	return b.String()
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() Result
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Lemma 6.1: algorithm L in the timed model", E1AlgorithmL},
		{"E2", "Lemma 6.2: algorithm S superlinearizability in the timed model", E2AlgorithmS},
		{"E3", "Theorem 6.5: transformed S in the clock model", E3ClockModel},
		{"E4", "§6.3: comparison against the [10] baseline", E4Comparison},
		{"E5", "Theorem 4.7: simulation-1 real-time preservation", E5Sim1Shift},
		{"E6", "Lemma 4.5: message clock-time delay bounds", E6ClockDelay},
		{"E7", "§7.2: receive-buffer cost vs d1/2ε", E7Buffering},
		{"E8", "Theorems 5.1/5.2: simulation-2 output shift", E8MMTShift},
		{"E9", "verification matrix with mutations", E9Matrix},
		{"E10", "events and operations by model and size", E10Events},
		{"E11", "§6 generalized to other shared-memory objects", E11Objects},
		{"E12", "§7.3 failures explored: crashes and lossy links", E12Failures},
		{"E13", "clock granularity: TICK period sweep in D_M", E13Granularity},
		{"E14", "Attiya-Welch boundary: sequential consistency vs linearizability", E14SeqConsistency},
		{"E15", "failure detection: timeout margins in the clock model", E15Detector},
		{"E16", "real-time vs internal specifications under simulation 1", E16RealTimeSpecs},
		{"E17", "tiered keyed store live: the L-tier read discount vs S on shared nodes", E17TieredLive},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// twinShards is the fan-out of the sharded twin every streamed check
// carries: each run that attaches a streaming monitor also attaches a
// sharded copy of each checker, and streamParity requires its verdict to
// equal the batch oracle byte-for-byte. Two is the smallest count that
// takes the worker-pool path.
const twinShards = 2

// shardedName names the sharded twin of a streaming check.
func shardedName(name string) string { return name + "@sharded" }

// Shared workload/runner plumbing.

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// runSpec describes one measured register execution.
type runSpec struct {
	model   string // "timed" | "clock" | "mmt"
	factory core.AlgorithmFactory
	n       int
	bounds  simtime.Interval
	seed    int64
	clocks  clock.Factory
	delays  func() channel.DelayPolicy
	ell     simtime.Duration
	steps   func() core.StepPolicy
	shards  int // core.Config.Shards: below 2, the sequential executor

	ops        int
	think      simtime.Interval
	writeRatio float64
	noBuffer   bool

	// stream lists online checkers to attach as a streaming monitor
	// alongside the retained trace; streamParity later cross-checks each
	// verdict against the batch checker over the retained history.
	stream []streamCheck
	// sinks are additional event sinks attached before the run.
	sinks []exec.Sink
	// noRetain turns trace retention off: the run is observed only
	// through the attached sinks and monitor, and runOut.ops is empty.
	noRetain bool
}

// streamCheck names one online-checker configuration of a run's monitor:
// a linearizability checker by default, or — when seq is set — the online
// sequential-consistency checker (opt is then ignored). Parity for seq
// checks is against CheckSequentiallyConsistent, itself a replay of the
// same automaton, so the assertion is feed-order independence: response
// order online versus per-node invocation order in batch.
type streamCheck struct {
	name string
	opt  linearize.Options
	seq  *linearize.SeqOptions
}

// checker builds the streamCheck's sharded checker with the given fan-out
// (below 2: inline on the observing goroutine).
func (sc streamCheck) checker(shards int) *linearize.Sharded {
	so := linearize.ShardedOptions{Check: sc.opt, Shards: shards}
	if sc.seq != nil {
		seq := *sc.seq
		so.New = func(string) linearize.Automaton { return linearize.NewSeqOnline(seq) }
	}
	return linearize.NewSharded(so)
}

// batch replays the streamCheck's specification over a retained history.
func (sc streamCheck) batch(ops []linearize.Op) linearize.Result {
	if sc.seq != nil {
		return linearize.CheckSequentiallyConsistent(ops, sc.seq.Initial)
	}
	return linearize.Check(ops, sc.opt)
}

// runOut is what a run produces.
type runOut struct {
	net    *core.Net
	ops    []linearize.Op
	mon    *register.Monitor
	stream []streamCheck
}

// run executes the spec to completion and extracts the history.
func run(spec runSpec) (runOut, error) {
	cfg := core.Config{
		N:                 spec.n,
		Bounds:            spec.bounds,
		Seed:              spec.seed,
		Clocks:            spec.clocks,
		NewDelay:          spec.delays,
		Ell:               spec.ell,
		NewStep:           spec.steps,
		DisableRecvBuffer: spec.noBuffer,
		Shards:            spec.shards,
	}
	var net *core.Net
	switch spec.model {
	case "timed":
		net = core.BuildTimed(cfg, spec.factory)
	case "clock":
		net = core.BuildClocked(cfg, spec.factory)
	case "mmt":
		net = core.BuildMMT(cfg, spec.factory)
	default:
		return runOut{}, fmt.Errorf("experiments: unknown model %q", spec.model)
	}
	var mon *register.Monitor
	if len(spec.stream) > 0 {
		mon = register.NewMonitor()
		for _, sc := range spec.stream {
			mon.AddChecker(sc.name, sc.checker(0))
			mon.AddChecker(shardedName(sc.name), sc.checker(twinShards))
		}
		net.Sys.AddSink(mon)
		// Finish is what stops the sharded twins' workers, so it runs on
		// the error returns too.
		defer mon.Finish()
	}
	for _, sk := range spec.sinks {
		net.Sys.AddSink(sk)
	}
	if spec.noRetain {
		net.Sys.KeepTrace = false
	}
	clients := workload.Attach(net, workload.Config{
		Ops:        spec.ops,
		Think:      spec.think,
		WriteRatio: spec.writeRatio,
		Seed:       spec.seed + 1,
		Stagger:    300 * us,
	})
	// MMT systems never quiesce (step opportunities recur forever), so run
	// in slices and stop once every client has finished and in-flight work
	// has had time to settle.
	const horizon = 60 * simtime.Second
	allDone := func() bool {
		for _, c := range clients {
			if c.Done != spec.ops {
				return false
			}
		}
		return true
	}
	for net.Sys.Now() < simtime.Time(horizon) && !allDone() {
		if err := net.Sys.Run(net.Sys.Now().Add(20 * ms)); err != nil {
			return runOut{}, err
		}
	}
	if _, err := net.Sys.RunQuiet(net.Sys.Now().Add(50 * ms)); err != nil {
		return runOut{}, err
	}
	for _, c := range clients {
		if c.Done != spec.ops {
			return runOut{}, fmt.Errorf("experiments: %s completed %d/%d ops", c.Name(), c.Done, spec.ops)
		}
	}
	var ops []linearize.Op
	if !spec.noRetain {
		var err error
		if ops, err = register.History(net.Sys.Trace().Visible()); err != nil {
			return runOut{}, err
		}
	}
	return runOut{net: net, ops: ops, mon: mon, stream: spec.stream}, nil
}

// streamParity cross-checks a run's streaming monitor against its
// retained trace: every online verdict must be byte-identical to the
// batch checker replayed over the scraped history, and the monitor's
// O(1)-memory latency aggregates must equal the retained sample's
// count/extrema/mean. Returns failure strings; empty when the spec
// attached no monitor.
func streamParity(out runOut) []string {
	if out.mon == nil {
		return nil
	}
	var fails []string
	if err := out.mon.Err(); err != nil {
		return []string{fmt.Sprintf("streaming monitor: %v", err)}
	}
	for _, sc := range out.stream {
		batch := sc.batch(out.ops)
		if got := out.mon.Verdict(sc.name); got != batch {
			fails = append(fails, fmt.Sprintf("streaming %q verdict %+v != batch %+v", sc.name, got, batch))
		}
		if got := out.mon.Verdict(shardedName(sc.name)); got != batch {
			fails = append(fails, fmt.Sprintf("sharded(%d) %q verdict %+v != batch %+v", twinShards, sc.name, got, batch))
		}
	}
	reads, writes := register.Latencies(out.ops)
	for _, side := range []struct {
		kind   string
		sample []simtime.Duration
		stream *stats.Stream
	}{{"read", reads, &out.mon.Reads}, {"write", writes, &out.mon.Writes}} {
		want := stats.Summarize(side.sample)
		if side.stream.N != want.N || side.stream.Min != want.Min ||
			side.stream.Max != want.Max || side.stream.Mean() != want.Mean {
			fails = append(fails, fmt.Sprintf("streaming %s latencies n=%d [%v, %v] mean=%v != retained n=%d [%v, %v] mean=%v",
				side.kind, side.stream.N, side.stream.Min, side.stream.Max, side.stream.Mean(),
				want.N, want.Min, want.Max, want.Mean))
		}
	}
	return fails
}

// linearizeCheck decides plain linearizability (widen = 0) or P_ε
// membership (widen = ε) of a run's history.
func linearizeCheck(out runOut, widen simtime.Duration) linearize.Result {
	if widen > 0 {
		return linearize.CheckEps(out.ops, register.Initial.String(), widen)
	}
	return linearize.CheckLinearizable(out.ops, register.Initial.String())
}

// superlinearizeCheck decides ε-superlinearizability of a run's history.
func superlinearizeCheck(out runOut, eps simtime.Duration) linearize.Result {
	return linearize.CheckSuperLinearizable(out.ops, register.Initial.String(), eps)
}

// fmtD renders a duration compactly for tables.
func fmtD(d simtime.Duration) string { return d.String() }

// checkMark renders a boolean verdict.
func checkMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
