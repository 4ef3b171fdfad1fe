// Tradeoff: sweep the c knob of the transformed register algorithm S and
// print the read/write latency tradeoff line of §6.1/§6.3, together with
// the [10] baseline's flat costs — the series behind experiment E4's
// crossover: ours reads faster below c = 3u−δ, the baseline above, and
// ours wins on combined cost everywhere.
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

func measure(factory core.AlgorithmFactory, eps simtime.Duration, bounds simtime.Interval, seed int64) (read, write simtime.Duration, lin bool, err error) {
	net := core.BuildClocked(core.Config{
		N:      3,
		Bounds: bounds,
		Seed:   seed,
		Clocks: clock.SpreadFactory(eps),
	}, factory)
	clients := workload.Attach(net, workload.Config{
		Ops:        25,
		Think:      simtime.NewInterval(0, 2*ms),
		WriteRatio: 0.4,
		Seed:       seed + 1,
		Stagger:    300 * us,
	})
	if _, err = net.Sys.RunQuiet(simtime.Time(30 * simtime.Second)); err != nil {
		return 0, 0, false, err
	}
	for _, c := range clients {
		if c.Done != 25 {
			return 0, 0, false, fmt.Errorf("%s finished %d/25", c.Name(), c.Done)
		}
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		return 0, 0, false, err
	}
	reads, writes := register.Latencies(ops)
	lin = linearize.CheckLinearizable(ops, register.Initial.String()).OK
	return stats.MaxDuration(reads), stats.MaxDuration(writes), lin, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eps := 400 * us
	u := 2 * eps
	bounds := simtime.NewInterval(1*ms, 3*ms)

	baseR, baseW, baseLin, err := measure(register.BaselineFactory(u, bounds.Hi), eps, bounds, 7)
	if err != nil {
		return err
	}

	tb := stats.NewTable("c", "S read", "S write", "S combined", "S lin.", "who reads faster")
	for c := simtime.Duration(0); c <= 4*u; c += u / 2 {
		p := register.Params{C: c, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
		r, w, lin, err := measure(register.Factory(register.NewS, p), eps, bounds, 7)
		if err != nil {
			return err
		}
		who := "S"
		if r > baseR {
			who = "baseline"
		}
		oks := "yes"
		if !lin {
			oks = "NO"
		}
		tb.AddRow(c.String(), r.String(), w.String(), (r + w).String(), oks, who)
	}
	fmt.Printf("ε = %v, u = 2ε = %v, d = %v\n", eps, u, bounds)
	fmt.Printf("baseline [10]: read %v, write %v, combined %v, linearizable %v\n",
		baseR, baseW, baseR+baseW, baseLin)
	fmt.Printf("paper's crossover: c = 3u − δ = %v\n\n", 3*u-10*us)
	fmt.Print(tb.String())
	return nil
}
