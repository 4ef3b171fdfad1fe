// Quickstart: build a 3-node distributed system whose clocks are only
// ε-accurate, run the paper's transformed register algorithm S on it, and
// verify that the resulting history is linearizable (Theorem 6.5) — all in
// simulated time, deterministically. README's Quickstart is this file.
package main

import (
	"fmt"
	"log"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const ms, us = simtime.Millisecond, simtime.Microsecond
	eps := 500 * us                           // clock accuracy ε
	bounds := simtime.NewInterval(1*ms, 3*ms) // message delays [d1, d2]

	// Algorithm S (§6.2) is written against perfect time (the §3
	// programming model) and designed for the widened delay bound
	// d'2 = d2 + 2ε of Theorem 4.7. The knob c trades read latency
	// against write latency.
	params := register.Params{C: 700 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
	if err := params.Validate(); err != nil {
		return err
	}

	// D_C, the §4 transformation assembled: each node runs C(S_i, ε) with
	// send/receive buffers on clock-tagged edges, its clock drifting within ε.
	net := core.BuildClocked(core.Config{
		N: 3, Bounds: bounds, Seed: 42,
		Clocks: clock.DriftFactory(eps, 7),
	}, register.Factory(register.NewS, params))

	// Closed-loop clients, one per node, 30 operations each (§6.1's
	// alternation condition), run to quiescence.
	clients := workload.Attach(net, workload.Config{
		Ops: 30, Think: simtime.NewInterval(0, 2*ms), WriteRatio: 0.4, Seed: 1, Stagger: 300 * us,
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
		return err
	}
	for _, c := range clients {
		fmt.Printf("%s completed %d operations\n", c.Name(), c.Done)
		if c.Done != 30 {
			return fmt.Errorf("%s stopped short of 30 operations", c.Name())
		}
	}

	// The history in the visible trace: its latencies against the paper's
	// costs, then plain linearizability, which Theorem 6.5 promises even
	// though no node ever saw real time.
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		return err
	}
	reads, writes := register.Latencies(ops)
	fmt.Printf("reads : %v (paper: %v in clock time)\n", stats.Summarize(reads), 2*eps+params.Delta+params.C)
	fmt.Printf("writes: %v (paper: %v in clock time)\n", stats.Summarize(writes), bounds.Hi+2*eps-params.C)
	if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
		return fmt.Errorf("history is NOT linearizable: %s", r.Reason)
	}
	fmt.Println("history is linearizable ✓ (Theorem 6.5)")
	return nil
}
