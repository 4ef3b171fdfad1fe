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

// Experiment couples an ID and the title its Result prints with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() Result
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		sim("E1", "Lemma 6.1: algorithm L in D_T (d'2=3ms, δ=10µs)", e1AlgorithmL),
		sim("E2", "Lemma 6.2: algorithm S in D_T (c=600µs, δ=10µs)", e2AlgorithmS),
		sim("E3", "Theorem 6.5: S^c in D_C (d2=3ms, c=700µs)", e3ClockModel),
		sim("E4", "§6.3 comparison: transformed S vs [10] baseline (u = 2ε, d2 = 3ms)", e4Comparison),
		sim("E5", "Theorem 4.7: simulation-1 real-time preservation", e5Sim1Shift),
		sim("E6", "Lemma 4.5: message clock-time delays (d=[1ms,3ms])", e6ClockDelay),
		sim("E7", "§7.2: receive-buffer cost (ε=500µs, min-delay adversary, max-skew clocks)", e7Buffering),
		sim("E8", "Theorems 5.1/5.2: output shift of D_M vs D_C (ε=200µs, lazy steps)", e8MMTShift),
		sim("E9", "verification matrix with mutations", e9Matrix),
		sim("E10", "events and operations by model and size (fixed operation count)", e10Events),
		sim("E11", "§6 generalized: blind-update/query objects across all models (ε=400µs)", e11Objects),
		sim("E12", "§7.3 failures explored: crash-stop tolerated, lossy links not", e12Failures),
		sim("E13", "clock granularity: TICK period sweep in D_M (ℓ=200µs, ε=200µs)", e13Granularity),
		sim("E14", "Attiya-Welch boundary: L in D_C is sequentially consistent, not linearizable (ε=1ms, max skew)", e14SeqConsistency),
		sim("E15", "failure detection: timeout margin sweep in D_C (π=5ms, d=[0.5ms,1.5ms], ε=800µs)", e15Detector),
		sim("E16", "real-time vs internal specifications under simulation 1 (ε=800µs, sawtooth clocks)", e16RealTimeSpecs),
		{"E17", e17Title, E17TieredLive},
	}
}

// sim makes an Experiment of a simulated experiment's output and failures:
// its Result, passing or failing, carries the title All declares.
func sim(id, title string, run func() (string, []string)) Experiment {
	return Experiment{id, title, func() Result {
		out, fails := run()
		return Result{ID: id, Title: title, Output: out, Failures: fails}
	}}
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

// Shared workload/runner plumbing.

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// links is the link delay interval [d1, d2] and think the clients' think
// time of every row that does not vary them.
var (
	links = simtime.NewInterval(1*ms, 3*ms)
	think = simtime.NewInterval(0, 2*ms)
)

// runSpec describes one measured register execution and what its row
// asserts: the system (the embedded core.Config, built as model with
// factory), a closed-loop client at every node, the checks its history
// must pass and the latencies it must show.
type runSpec struct {
	core.Config
	model   string // core.Build's model name
	factory core.AlgorithmFactory
	// key is the row's leading cells, the parameters it varies; joined by
	// "/" it names the row in failures.
	key []string

	ops        int
	think      simtime.Interval
	writeRatio float64

	// checks are decided over the retained history. With online set they
	// also run as a streaming monitor beside the trace, and each online
	// verdict, and the monitor's latency aggregates, must equal the batch's.
	checks []check
	online bool
	// want, when set, is the latency the row's lemma or theorem states.
	want *cost

	// sinks are additional event sinks attached before the run.
	sinks []exec.Sink
	// noRetain turns trace retention off: the run is observed only
	// through the attached sinks and monitor, and runOut.ops is empty.
	noRetain bool
}

// label names the row in failures.
func (s runSpec) label() string { return strings.Join(s.key, "/") }

// cost is a wanted read and write latency and how far every measured one
// may stray from it: 0 in D_T, 2ε in D_C, whose clocks are up to ε off
// real time at each end of an operation.
type cost struct{ read, write, tol simtime.Duration }

// check is one condition on a register history: a linearizability checker
// by default, or — when seq is set — sequential consistency (opt is then
// ignored). Online, a seq check's batch twin CheckSequentiallyConsistent
// is a replay of the same automaton, so their parity asserts feed-order
// independence: response order online versus per-node invocation order in
// batch.
type check struct {
	name string
	opt  linearize.Options
	seq  *linearize.SeqOptions
}

// linCheck is linearizability, §6.1's problem P.
var linCheck = check{name: "lin", opt: linearize.Options{Initial: register.Initial.String()}}

// superCheck is ε-superlinearizability, §6.2's problem Q: every
// linearization point at least 2ε after its invocation.
func superCheck(eps simtime.Duration) check {
	c := linCheck
	c.name, c.opt.MinAfterInv = "super", 2*eps
	return c
}

// checker builds the check's keyed online checker.
func (c check) checker() *linearize.Sharded {
	so := linearize.ShardedOptions{Check: c.opt}
	if c.seq != nil {
		seq := *c.seq
		so.New = func(string) linearize.Automaton { return linearize.NewSeqOnline(seq) }
	}
	return linearize.NewSharded(so)
}

// batch replays the check over a retained history.
func (c check) batch(ops []linearize.Op) linearize.Result {
	if c.seq != nil {
		return linearize.CheckSequentiallyConsistent(ops, c.seq.Initial)
	}
	return linearize.Check(ops, c.opt)
}

// runOut is what a run produces.
type runOut struct {
	net *core.Net
	ops []linearize.Op
	mon *register.Monitor
}

// run executes the spec to completion and extracts the history.
func run(s runSpec) (runOut, error) {
	net, err := core.Build(s.model, s.Config, s.factory)
	if err != nil {
		return runOut{}, err
	}
	var mon *register.Monitor
	if s.online {
		mon = register.NewMonitor()
		for _, c := range s.checks {
			mon.AddChecker(c.name, c.checker())
		}
		net.Sys.AddSink(mon)
	}
	for _, sk := range s.sinks {
		net.Sys.AddSink(sk)
	}
	if s.noRetain {
		net.Sys.KeepTrace = false
	}
	clients := workload.Attach(net, workload.Config{
		Ops:        s.ops,
		Think:      s.think,
		WriteRatio: s.writeRatio,
		Seed:       s.Seed + 1,
		Stagger:    300 * us,
	})
	if err := net.RunUntil(workload.AllDone(clients), simtime.Time(60*simtime.Second)); err != nil {
		return runOut{}, err
	}
	for _, c := range clients {
		if c.Done != s.ops {
			return runOut{}, fmt.Errorf("experiments: %s completed %d/%d ops", c.Name(), c.Done, s.ops)
		}
	}
	var ops []linearize.Op
	if !s.noRetain {
		if ops, err = register.History(net.Sys.Trace().Visible()); err != nil {
			return runOut{}, err
		}
	}
	return runOut{net: net, ops: ops, mon: mon}, nil
}

// measured is one evaluated run: its spec, what it produced, the history's
// latencies, each check's batch verdict and every failure. A run that did
// not complete has a nil net and only its error.
type measured struct {
	runOut
	spec          runSpec
	reads, writes stats.Summary
	verdict       map[string]linearize.Result
	fails         []string
}

// evaluate runs s and judges it: each check, online against batch when
// s.online, and the wanted latencies.
func evaluate(s runSpec) measured {
	m := measured{spec: s, verdict: map[string]linearize.Result{}}
	var err error
	if m.runOut, err = run(s); err != nil {
		m.fails = []string{err.Error()}
		return m
	}
	reads, writes := register.Latencies(m.ops)
	m.reads, m.writes = stats.Summarize(reads), stats.Summarize(writes)
	for _, c := range s.checks {
		v := c.batch(m.ops)
		m.verdict[c.name] = v
		if !v.OK {
			m.fails = append(m.fails, fmt.Sprintf("%s: %s violated: %s", s.label(), c.name, v.Reason))
		}
		if s.online && m.mon.Verdict(c.name) != v {
			m.fails = append(m.fails, fmt.Sprintf("%s: streaming %q verdict %+v != batch %+v", s.label(), c.name, m.mon.Verdict(c.name), v))
		}
	}
	var want cost
	if s.want != nil {
		want = *s.want
	}
	var streamR, streamW *stats.Stream
	if s.online {
		if err := m.mon.Err(); err != nil {
			m.fails = append(m.fails, fmt.Sprintf("%s: streaming monitor: %v", s.label(), err))
		}
		streamR, streamW = &m.mon.Reads, &m.mon.Writes
	}
	for _, side := range []struct {
		kind   string
		got    stats.Summary
		want   simtime.Duration
		stream *stats.Stream
	}{{"read", m.reads, want.read, streamR}, {"write", m.writes, want.write, streamW}} {
		got := side.got
		if s.want != nil && ((got.Min-side.want).Abs() > want.tol || (got.Max-side.want).Abs() > want.tol) {
			m.fails = append(m.fails, fmt.Sprintf("%s: %s latency [%v, %v] vs %v ± %v",
				s.label(), side.kind, got.Min, got.Max, side.want, want.tol))
		}
		// The monitor's O(1)-memory aggregates against the retained sample.
		if st := side.stream; st != nil && (st.N != got.N || st.Min != got.Min || st.Max != got.Max || st.Mean() != got.Mean) {
			m.fails = append(m.fails, fmt.Sprintf("%s: streaming %s latencies n=%d [%v, %v] mean=%v != retained n=%d [%v, %v] mean=%v",
				s.label(), side.kind, st.N, st.Min, st.Max, st.Mean(), got.N, got.Min, got.Max, got.Mean))
		}
	}
	return m
}

// clocks builds the clock.Adversaries entry called name with the 8ms
// sawtooth period the experiments' rows were measured with.
func clocks(name string, eps simtime.Duration, seed int64) clock.Factory {
	return must(clock.Named(name, eps, 8*ms, seed))
}

// must unwraps a vocabulary lookup of a name the code spells out.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
