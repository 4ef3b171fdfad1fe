package experiments

import (
	"fmt"
	"slices"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// e15Detector regenerates Table 11: failure detection, the first use of
// time the paper's introduction names. A heartbeat detector designed in
// the timed model with the tight timeout π+(d2−d1) is perfectly accurate
// there; run unchanged in the clock model its accuracy decays as clock
// adversaries stretch observed heartbeat gaps by up to 4ε. Sweeping the
// added margin shows accuracy restored at exactly the 4ε the analysis
// predicts (the §7.1 strengthening, applied to timeouts), and the final
// row prices it: a crashed node is detected within timeout + π + d2 + 2ε.
func e15Detector() (string, []string) {
	bounds := simtime.NewInterval(500*us, 1500*us)
	eps := 800 * us
	period := 5 * ms
	beats := 25
	lastHeartbeat := simtime.Time(simtime.Duration(beats) * period)
	base := detector.SafeTimeoutTA(period, bounds)

	// The margin × clock grid fans out; each row records, at its own index,
	// whether a margin below 4ε misfired.
	knobs := grid([]simtime.Duration{0, eps, 2 * eps, 3 * eps, 4 * eps}, "spread", "sawtooth")
	misfired := make([]bool, len(knobs))
	rows := parmap(len(knobs), func(i int) row {
		k := knobs[i]
		p := detector.Params{Period: period, Timeout: base + k.d, Heartbeats: beats}
		net := core.BuildClocked(core.Config{N: 3, Bounds: bounds, Seed: 15, Clocks: clocks(k.name, eps, 0)}, detector.Factory(p))
		if err := net.Sys.Run(simtime.Time(150 * ms)); err != nil {
			return row{fails: []string{err.Error()}}
		}
		n := 0
		for _, s := range detector.Suspicions(net.Sys.Trace()) {
			if s.At.Before(lastHeartbeat) {
				n++
			}
		}
		misfired[i] = k.d < 4*eps && n > 0
		r := row{cells: []string{fmtD(k.d), fmtD(p.Timeout), k.name, fmt.Sprint(n), checkMark(n == 0)}}
		if k.d >= 4*eps && n > 0 {
			r.fails = []string{fmt.Sprintf("margin %v (≥4ε): %d false suspicions under %s clocks", k.d, n, k.name)}
		}
		return r
	})
	var fails []string
	if !slices.Contains(misfired, true) {
		fails = append(fails, "no adversary ever caused a false suspicion below the 4ε margin; the margin appears unnecessary")
	}

	// Detection latency of a real crash under the safe timeout.
	p := detector.Params{Period: period, Timeout: detector.SafeTimeoutClock(period, bounds, eps), Heartbeats: 0}
	net := core.BuildClocked(core.Config{N: 3, Bounds: bounds, Seed: 16, Clocks: clock.DriftFactory(eps, 7)}, detector.Factory(p))
	crashAt := simtime.Time(40 * ms)
	if _, err := core.CrashNode(net, 2, crashAt); err != nil {
		fails = append(fails, err.Error())
	} else if err := net.Sys.Run(simtime.Time(200 * ms)); err != nil {
		fails = append(fails, err.Error())
	} else {
		var latencies []simtime.Duration
		for _, s := range detector.Suspicions(net.Sys.Trace()) {
			if s.Of != ta.NodeID(2) {
				fails = append(fails, fmt.Sprintf("false suspicion of live node: %+v", s))
				continue
			}
			latencies = append(latencies, s.At.Sub(crashAt))
		}
		bound := period + p.Timeout + bounds.Hi + 2*eps
		sum := stats.Summarize(latencies)
		rows = append(rows, row{cells: []string{"(crash)", fmtD(p.Timeout), "drift", fmt.Sprintf("detected in %v..%v", sum.Min, sum.Max),
			checkMark(len(latencies) == 2 && sum.Max <= bound)}})
		if len(latencies) != 2 {
			fails = append(fails, fmt.Sprintf("crash detected by %d/2 peers", len(latencies)))
		} else if sum.Max > bound {
			fails = append(fails, fmt.Sprintf("detection latency %v exceeds bound %v", sum.Max, bound))
		}
	}
	tb, rowFails := render(rows, "margin", "timeout", "clocks", "false suspicions", "accurate")
	return tb, append(rowFails, fails...)
}
