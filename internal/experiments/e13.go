package experiments

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/workload"
)

// E13Granularity regenerates Figure 6: the cost of clock granularity. In
// the MMT model the node learns its clock only through TICK(c) events
// (§5.2), so a timer at clock T fires only after (1) a tick reports
// mmtclock ≥ T, (2) a step opportunity arrives, and (3) the output drains
// through the pending queue. Sweeping the tick period at fixed ℓ isolates
// (1): response latency inflates roughly linearly with the tick period,
// the executable face of "the clock may change in discrete jumps, so that
// any particular time value might be missed" (§1).
func E13Granularity() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 200 * us
	ell := 200 * us
	kHeadroom := 24 * ell
	p := register.Params{C: 300 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + kHeadroom, Epsilon: eps}
	ideal := 2*eps + p.Delta + p.C // clock-time read cost of Theorem 6.5

	tb := stats.NewTable("tick period", "read p50", "read max", "excess over clock-model max", "linearizable")
	var fails []string
	var figP50, figMax []stats.Point

	// The clock-model reference and every tick row fan out together; the
	// bounds checks that compare rows (excess over the reference, the
	// cross-row monotonicity check) live in the sequential reduce below.
	ticks := []simtime.Duration{25 * us, 50 * us, 100 * us, 200 * us}
	type e13Row struct {
		sum  stats.Summary
		lin  bool
		errs []string
		skip bool
	}
	rows := parmap(1+len(ticks), func(i int) e13Row {
		if i == 0 {
			// Clock-model reference (continuous clock knowledge).
			refOut, err := run(runSpec{
				model:   "clock",
				factory: register.Factory(register.NewS, p),
				n:       3, bounds: bounds, seed: 1300,
				clocks: clock.DriftFactory(eps, 13),
				ops:    25, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.3,
			})
			if err != nil {
				return e13Row{errs: []string{err.Error()}, skip: true}
			}
			refReads, _ := register.Latencies(refOut.ops)
			return e13Row{sum: stats.Summarize(refReads), lin: linCheck(refOut, 0)}
		}
		tick := ticks[i-1]
		cfg := core.Config{
			N: 3, Bounds: bounds, Seed: 1300,
			Clocks: clock.DriftFactory(eps, 13),
			Ell:    ell, TickPeriod: tick,
		}
		net := core.BuildMMT(cfg, register.Factory(register.NewS, p))
		done := workload.AllDone(workload.Attach(net, workload.Config{
			Ops: 25, Think: simtime.NewInterval(0, 2*ms), WriteRatio: 0.3, Seed: 1301, Stagger: 300 * us,
		}))
		if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
			return e13Row{errs: []string{err.Error()}, skip: true}
		}
		if !done() {
			return e13Row{errs: []string{fmt.Sprintf("tick=%v: clients did not finish", tick)}, skip: true}
		}
		ops, err := register.History(net.Sys.Trace().Visible())
		if err != nil {
			return e13Row{errs: []string{err.Error()}, skip: true}
		}
		reads, _ := register.Latencies(ops)
		return e13Row{sum: stats.Summarize(reads), lin: linCheck(runOut{net: net, ops: ops}, 0)}
	})

	if rows[0].skip {
		return Result{ID: "E13", Title: "tick granularity", Failures: rows[0].errs}
	}
	refMax := rows[0].sum.Max
	tb.AddRow("(continuous)", fmtD(rows[0].sum.P50), fmtD(refMax), "0s", checkMark(rows[0].lin))

	prevMax := simtime.Duration(0)
	for i, tick := range ticks {
		r := rows[1+i]
		fails = append(fails, r.errs...)
		if r.skip {
			continue
		}
		sum := r.sum
		excess := sum.Max - refMax
		tb.AddRow(fmtD(tick), fmtD(sum.P50), fmtD(sum.Max), fmtD(excess), checkMark(r.lin))
		figP50 = append(figP50, stats.Point{X: tick.Millis(), Y: sum.P50.Millis()})
		figMax = append(figMax, stats.Point{X: tick.Millis(), Y: sum.Max.Millis()})
		if !r.lin {
			fails = append(fails, fmt.Sprintf("tick=%v: not linearizable", tick))
		}
		// Granularity cost bound: tick staleness ≤ tick period, plus step
		// and queueing ≤ a few ℓ; and it must never beat the ideal.
		if excess > tick+6*ell+2*eps {
			fails = append(fails, fmt.Sprintf("tick=%v: excess %v beyond tick+6ℓ+2ε", tick, excess))
		}
		if sum.Min < ideal-2*eps {
			fails = append(fails, fmt.Sprintf("tick=%v: read %v beat the clock-time ideal", tick, sum.Min))
		}
		if prevMax > 0 && sum.Max+ell < prevMax-4*ell {
			// Coarser ticks should not get dramatically faster.
			fails = append(fails, fmt.Sprintf("tick=%v: latency non-monotone (%v after %v)", tick, sum.Max, prevMax))
		}
		prevMax = sum.Max
	}
	fig := stats.Chart("Figure 6: read latency vs TICK period", "tick period (ms)", "read latency (ms)",
		[]stats.Series{
			{Name: "p50", Marker: 'p', Points: figP50},
			{Name: "max", Marker: 'M', Points: figMax},
		}, 56, 10)
	return Result{
		ID:       "E13",
		Title:    "clock granularity: TICK period sweep in D_M (ℓ=200µs, ε=200µs)",
		Output:   tb.String() + fig,
		Failures: fails,
	}
}
