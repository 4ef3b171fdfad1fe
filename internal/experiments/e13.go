package experiments

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
)

// e13Granularity regenerates Figure 6: the cost of clock granularity. In
// the MMT model the node learns its clock only through TICK(c) events
// (§5.2), so a timer at clock T fires only after (1) a tick reports
// mmtclock ≥ T, (2) a step opportunity arrives, and (3) the output drains
// through the pending queue. Sweeping the tick period at fixed ℓ isolates
// (1): response latency inflates roughly linearly with the tick period,
// the executable face of "the clock may change in discrete jumps, so that
// any particular time value might be missed" (§1).
func e13Granularity() (string, []string) {
	eps, ell := 200*us, 200*us
	p := register.Params{C: 300 * us, Delta: 10 * us, D2: links.Hi + 2*eps + 24*ell, Epsilon: eps}
	ideal := 2*eps + p.Delta + p.C // clock-time read cost of Theorem 6.5

	// The clock-model reference (tick 0: continuous clock knowledge) and
	// every tick row fan out together; the checks that compare rows (excess
	// over the reference, monotonicity) live in the sequential reduce below.
	ticks := []simtime.Duration{0, 25 * us, 50 * us, 100 * us, 200 * us}
	runs := parmapSlice(ticks, func(tick simtime.Duration) measured {
		s := runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 1300, Clocks: clock.DriftFactory(eps, 13)},
			model:  "clock", factory: register.Factory(register.NewS, p), key: []string{"(continuous)"},
			ops: 25, think: think, writeRatio: 0.3, checks: []check{linCheck},
		}
		if tick > 0 {
			s.model, s.Ell, s.TickPeriod, s.key = "mmt", ell, tick, []string{fmtD(tick)}
		}
		return evaluate(s)
	})
	ref := runs[0]
	if ref.net == nil {
		return "", ref.fails
	}
	rows := []row{{cells: []string{"(continuous)", fmtD(ref.reads.P50), fmtD(ref.reads.Max), "0s", checkMark(ref.verdict["lin"].OK)}, fails: ref.fails}}
	prevMax := simtime.Duration(0)
	for i, m := range runs[1:] {
		tick, sum := ticks[1+i], m.reads
		r := row{fails: m.fails}
		if m.net != nil {
			excess := sum.Max - ref.reads.Max
			r.cells = []string{fmtD(tick), fmtD(sum.P50), fmtD(sum.Max), fmtD(excess), checkMark(m.verdict["lin"].OK)}
			r.pts = []stats.Point{{X: tick.Millis(), Y: sum.P50.Millis()}, {X: tick.Millis(), Y: sum.Max.Millis()}}
			// Granularity cost bound: tick staleness ≤ tick period, plus
			// step and queueing ≤ a few ℓ; and it must never beat the ideal.
			if excess > tick+6*ell+2*eps {
				r.fails = append(r.fails, fmt.Sprintf("tick=%v: excess %v beyond tick+6ℓ+2ε", tick, excess))
			}
			if sum.Min < ideal-2*eps {
				r.fails = append(r.fails, fmt.Sprintf("tick=%v: read %v beat the clock-time ideal", tick, sum.Min))
			}
			if prevMax > 0 && sum.Max+ell < prevMax-4*ell {
				// Coarser ticks should not get dramatically faster.
				r.fails = append(r.fails, fmt.Sprintf("tick=%v: latency non-monotone (%v after %v)", tick, sum.Max, prevMax))
			}
			prevMax = sum.Max
		}
		rows = append(rows, r)
	}
	tb, fails := render(rows, "tick period", "read p50", "read max", "excess over clock-model max", "linearizable")
	return tb + chart("Figure 6: read latency vs TICK period", "tick period (ms)", "read latency (ms)", rows,
		stats.Series{Name: "p50", Marker: 'p'}, stats.Series{Name: "max", Marker: 'M'}), fails
}
