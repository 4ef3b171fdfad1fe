// Pipeline: one algorithm, three worlds. The register algorithm S is
// written once against perfect time (§3); this program runs it unchanged
// in all three system models —
//
//	D_T  the timed-automaton model (perfect time),
//	D_C  the clock model (ε-accurate clocks, Theorem 4.7),
//	D_M  the MMT model (clock + step time ℓ + TICK granularity,
//	     Theorem 5.2)
//
// — and shows what each layer of realism costs: the measured latencies,
// whether linearizability survives, and in D_M how far outputs shifted
// relative to their simulated clock times (bounded by kℓ+2ε+3ℓ).
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

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eps := 300 * us
	ell := 50 * us
	bounds := simtime.NewInterval(1*ms, 3*ms)
	kHeadroom := 24 * ell

	// One parameter set generous enough for the harshest model (Theorem
	// 5.2's d'2 = d2 + 2ε + kℓ), so the identical algorithm runs in all
	// three.
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + kHeadroom, Epsilon: eps}
	if err := p.Validate(); err != nil {
		return err
	}
	factory := register.Factory(register.NewS, p)

	tb := stats.NewTable("model", "read p99", "read max", "write p99", "write max", "linearizable", "max output shift")
	for _, model := range []string{"timed", "clock", "mmt"} {
		cfg := core.Config{
			N:      3,
			Bounds: bounds,
			Seed:   11,
			Clocks: clock.DriftFactory(eps, 23),
			Ell:    ell,
		}
		net, err := core.Build(model, cfg, factory)
		if err != nil {
			return err
		}
		done := workload.AllDone(workload.Attach(net, workload.Config{
			Ops:        25,
			Think:      simtime.NewInterval(0, 2*ms),
			WriteRatio: 0.4,
			Seed:       3,
			Stagger:    300 * us,
		}))
		if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
			return err
		}
		if !done() {
			return fmt.Errorf("%s: clients did not finish", model)
		}
		ops, err := register.History(net.Sys.Trace().Visible())
		if err != nil {
			return err
		}
		reads, writes := register.Latencies(ops)
		rs, ws := stats.Summarize(reads), stats.Summarize(writes)
		lin := linearize.CheckLinearizable(ops, register.Initial.String()).OK
		linS := "yes"
		if !lin {
			linS = "NO"
		}
		shift := "-"
		if model == "mmt" {
			var worst simtime.Duration
			for _, n := range net.MMT {
				for _, st := range n.Stamps() {
					if d := st.Real.Sub(simtime.Time(st.SimClock)); d > worst {
						worst = d
					}
				}
			}
			shift = worst.String()
		}
		tb.AddRow(model, rs.P99.String(), rs.Max.String(), ws.P99.String(), ws.Max.String(), linS, shift)
	}
	fmt.Printf("algorithm S, ε = %v, ℓ = %v, d = %v, lazy MMT steps\n", eps, ell, bounds)
	fmt.Printf("Theorem 5.1 output-shift budget (k from d'2 headroom): kℓ+2ε+3ℓ = %v\n\n",
		kHeadroom+2*eps+3*ell)
	fmt.Print(tb.String())
	return nil
}
