// Command pscfuzz runs randomized configuration campaigns against the
// transformed register: each trial draws a system size, delay bounds, ε,
// the c knob, clock and delay adversaries, and a workload, runs the
// clock-model system, and checks linearizability. Violations are reported
// with a shrunk minimal counterexample — if this tool ever prints one,
// Theorem 4.7/6.5 (or this library) has a bug.
//
// Usage:
//
//	pscfuzz -trials 200 -seed 1
//	pscfuzz -trials 50 -mutate    # sanity: fuzz the broken L variant, expect violations
//	pscfuzz -trials 50 -shards 4  # differential: sharded vs sequential execution
//	pscfuzz -trials 50 -tiers     # tier differential: S passes both checkers, L passes SC, lin rejects ≥ 1 L run
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/workload"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pscfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 100, "number of randomized trials")
	seed := fs.Int64("seed", 1, "campaign seed")
	mutate := fs.Bool("mutate", false, "fuzz the broken variant (plain L in the clock model); violations are then expected")
	shards := fs.Int("shards", 0, "run each trial again under sharded conservative-parallel execution with this many shards and require an identical history (<2: off)")
	tiersFuzz := fs.Bool("tiers", false, "tier differential: additionally check every S history for sequential consistency, run each trial's L twin under skewed clocks (always sequentially consistent, sometimes not linearizable), and require the linearizability checker to reject at least one L run")
	verbose := fs.Bool("v", false, "print each trial's configuration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	replay := func(trial int) string { // the flags only: anything after them would hide the appended one
		return "replay: pscfuzz " + strings.Join(replayArgs(args[:len(args)-fs.NArg()], trial), " ")
	}

	violations := 0
	linRejectsL := 0
	for trial := 0; trial < *trials; trial++ {
		cfgSeed := *seed*1_000_000_007 + int64(trial)
		desc, ops, err := oneTrial(cfgSeed, *mutate, 0)
		if err != nil {
			fmt.Fprintf(stderr, "pscfuzz: trial %d (%s): %v\n", trial, desc, err)
			return 2
		}
		if *verbose {
			fmt.Fprintf(stdout, "trial %d: %s (%d ops)\n", trial, desc, len(ops))
		}
		res := linearize.CheckLinearizable(ops, register.Initial.String())
		if *shards > 1 {
			if msg := diffSharded(cfgSeed, *mutate, *shards, ops, res); msg != "" {
				fmt.Fprintf(stdout, "DIVERGENCE in trial %d: %s\n  %s\n", trial, desc, msg)
				fmt.Fprintln(stdout, replay(trial))
				return 2
			}
		}
		if *tiersFuzz {
			rejected, msg := tierTrial(cfgSeed, ops, stdout)
			if msg != "" {
				fmt.Fprintf(stdout, "TIER VIOLATION in trial %d: %s\n  %s\n", trial, desc, msg)
				fmt.Fprintln(stdout, replay(trial))
				return 1
			}
			if rejected {
				linRejectsL++
			}
		}
		if res.OK {
			continue
		}
		violations++
		fmt.Fprintf(stdout, "VIOLATION in trial %d: %s\n  %s\n", trial, desc, res.Reason)
		small := linearize.Shrink(ops, nil, linearize.Options{Initial: register.Initial.String()})
		fmt.Fprintf(stdout, "  minimal counterexample (%d ops):\n", len(small))
		for _, o := range small {
			fmt.Fprintf(stdout, "    %v\n", o)
		}
		if !*mutate {
			fmt.Fprintln(stdout, replay(trial))
			return 1
		}
	}
	if *mutate {
		fmt.Fprintf(stdout, "%d/%d mutated trials violated linearizability (expected > 0)\n", violations, *trials)
		if violations == 0 {
			fmt.Fprintln(stdout, "WARNING: the broken variant never failed — the fuzzer may be too tame")
			return 1
		}
		return 0
	}
	if *tiersFuzz {
		fmt.Fprintf(stdout, "%d tier trials: every S history passed both checkers, every L history passed SC, linearizability rejected %d/%d L runs\n",
			*trials, linRejectsL, *trials)
		if linRejectsL == 0 {
			fmt.Fprintln(stdout, "WARNING: the linearizability checker never rejected an L run — the Attiya-Welch boundary did not materialize; the tier differential is vacuous")
			return 1
		}
	}
	if *shards > 1 {
		fmt.Fprintf(stdout, "%d trials, 0 violations, sequential and %d-sharded histories identical\n", *trials, *shards)
	} else {
		fmt.Fprintf(stdout, "%d trials, 0 violations\n", *trials)
	}
	return 0
}

// replayArgs returns the arguments that rerun one trial of the campaign
// that args ran, bit-for-bit. A trial's configuration seed is derived from
// the campaign seed and the trial's index, so the replay is the same
// campaign — its seed and every mode flag that shaped it — cut off after
// that trial: the flag package lets the last -trials win.
func replayArgs(args []string, trial int) []string {
	return append(append([]string(nil), args...), "-trials", strconv.Itoa(trial+1))
}

// tierTrial is the -tiers differential for one trial: the S-tier history
// (already checked for linearizability by the caller) must also be
// sequentially consistent — linearizability implies SC, so an SC rejection
// here is a checker bug, not an algorithm bug — and the trial's L twin,
// rerun under forced clock skew, must be sequentially consistent (Lemma
// 6.1's guarantee) while its linearizability verdict is free to go either
// way. It returns whether the linearizability checker rejected the L run
// (the caller requires at least one rejection over the campaign, proving
// the boundary between the tiers is observable, not vacuous) and a
// non-empty failure message on any directional violation.
func tierTrial(seed int64, sOps []linearize.Op, stdout io.Writer) (linRejected bool, msg string) {
	initial := register.Initial.String()
	if sc := linearize.CheckSequentiallyConsistent(sOps, initial); !sc.OK {
		printSeqShrink(stdout, sOps, initial)
		return false, fmt.Sprintf("S-tier history rejected by the SC checker: %s", sc.Reason)
	}
	descL, opsL, err := oneTrial(seed, true, 0)
	if err != nil {
		return false, fmt.Sprintf("L twin (%s) failed to run: %v", descL, err)
	}
	if sc := linearize.CheckSequentiallyConsistent(opsL, initial); !sc.OK {
		printSeqShrink(stdout, opsL, initial)
		return false, fmt.Sprintf("L-tier history (%s) rejected by the SC checker, contradicting Lemma 6.1: %s", descL, sc.Reason)
	}
	return !linearize.CheckLinearizable(opsL, initial).OK, ""
}

// printSeqShrink prints a minimal sub-history still rejected by the SC
// checker.
func printSeqShrink(stdout io.Writer, ops []linearize.Op, initial string) {
	small := linearize.ShrinkSeq(ops, initial)
	fmt.Fprintf(stdout, "  minimal SC counterexample (%d ops):\n", len(small))
	for _, o := range small {
		fmt.Fprintf(stdout, "    %v\n", o)
	}
}

// diffSharded reruns the trial under sharded execution and compares the
// resulting operation history and verdict against the sequential run.
// The conservative-parallel executor promises determinism — identical
// traces, not merely equivalent ones — so any diff is a bug in the
// d1-lookahead machinery. Returns "" when the runs agree.
func diffSharded(seed int64, mutate bool, shards int, seqOps []linearize.Op, seqRes linearize.Result) string {
	_, ops, err := oneTrial(seed, mutate, shards)
	if err != nil {
		return fmt.Sprintf("sharded run failed: %v", err)
	}
	if len(ops) != len(seqOps) {
		return fmt.Sprintf("sequential run has %d ops, %d-sharded run has %d", len(seqOps), shards, len(ops))
	}
	for i := range ops {
		if ops[i] != seqOps[i] {
			return fmt.Sprintf("histories diverge at op %d: sequential %v, %d-sharded %v", i, seqOps[i], shards, ops[i])
		}
	}
	if res := linearize.CheckLinearizable(ops, register.Initial.String()); res.OK != seqRes.OK {
		return fmt.Sprintf("verdicts diverge: sequential OK=%v, %d-sharded OK=%v (%s)", seqRes.OK, shards, res.OK, res.Reason)
	}
	return ""
}

// oneTrial draws and runs one configuration; shards > 1 selects the
// conservative-parallel executor (below 2 runs sequentially).
func oneTrial(seed int64, mutate bool, shards int) (string, []linearize.Op, error) {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(4)
	d1 := simtime.Duration(r.Int63n(int64(2 * ms)))
	d2 := d1 + 200*us + simtime.Duration(r.Int63n(int64(3*ms)))
	eps := simtime.Duration(r.Int63n(int64(ms))) + 10*us
	bounds := simtime.NewInterval(d1, d2)
	d2p := d2 + 2*eps
	cKnob := simtime.Duration(r.Int63n(int64(d2p - 2*eps + 1)))

	adv := clock.Adversaries[r.Intn(len(clock.Adversaries))]
	cname, cf := adv.Name, adv.New(eps, 0, seed)
	pol := channel.Policies[r.Intn(len(channel.Policies))]
	p := register.Params{C: cKnob, Delta: 5 * us, D2: d2p, Epsilon: eps}
	factory := register.Factory(register.NewS, p)
	algName := "S"
	if mutate {
		// The broken variant: no 2ε wait, designed for exact time.
		p = register.Params{C: 0, Delta: 5 * us, D2: d2p, Epsilon: 0}
		factory = register.Factory(register.NewL, p)
		algName = "L(mutated)"
		if cname == "perfect" {
			cf = clock.SpreadFactory(eps) // perfect clocks can't break L
			cname = "spread"
		}
	}
	desc := fmt.Sprintf("alg=%s n=%d d=[%v,%v] ε=%v c=%v clocks=%s delays=%s seed=%d",
		algName, n, d1, d2, eps, cKnob, cname, pol.Name, seed)

	cfg := core.Config{N: n, Bounds: bounds, Seed: seed, Clocks: cf, NewDelay: pol.New, FIFO: r.Intn(2) == 0, Shards: shards}
	net := core.BuildClocked(cfg, factory)
	clients := workload.Attach(net, workload.Config{
		Ops:        8 + r.Intn(10),
		Think:      simtime.NewInterval(0, simtime.Duration(r.Int63n(int64(3*ms)))),
		WriteRatio: 0.2 + 0.6*r.Float64(),
		Seed:       seed * 31,
		Stagger:    simtime.Duration(r.Int63n(int64(ms))),
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(120 * simtime.Second)); err != nil {
		return desc, nil, err
	}
	for _, c := range clients {
		if c.Done == 0 {
			return desc, nil, fmt.Errorf("client %s made no progress", c.Name())
		}
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	return desc, ops, err
}
