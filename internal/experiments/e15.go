package experiments

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// E15Detector regenerates Table 11: failure detection, the first use of
// time the paper's introduction names. A heartbeat detector designed in
// the timed model with the tight timeout π+(d2−d1) is perfectly accurate
// there; run unchanged in the clock model its accuracy decays as clock
// adversaries stretch observed heartbeat gaps by up to 4ε. Sweeping the
// added margin shows accuracy restored at exactly the 4ε the analysis
// predicts (the §7.1 strengthening, applied to timeouts), and the final
// row prices it: a crashed node is detected within timeout + π + d2 + 2ε.
func E15Detector() Result {
	bounds := simtime.NewInterval(500*us, 1500*us)
	eps := 800 * us
	period := 5 * ms
	beats := 25
	lastHeartbeat := simtime.Time(simtime.Duration(beats) * period)
	base := detector.SafeTimeoutTA(period, bounds)

	tb := stats.NewTable("margin", "timeout", "clocks", "false suspicions", "accurate")
	var fails []string

	countFalse := func(margin simtime.Duration, cf clock.Factory) (int, error) {
		p := detector.Params{Period: period, Timeout: base + margin, Heartbeats: beats}
		cfg := core.Config{N: 3, Bounds: bounds, Seed: 15, Clocks: cf}
		net := core.BuildClocked(cfg, detector.Factory(p))
		if err := net.Sys.Run(simtime.Time(150 * ms)); err != nil {
			return 0, err
		}
		n := 0
		for _, s := range detector.Suspicions(net.Sys.Trace()) {
			if s.At.Before(lastHeartbeat) {
				n++
			}
		}
		return n, nil
	}

	// The margin × clock grid fans out with a canonical clock order (a map
	// iteration here would make the row order nondeterministic). Factories
	// may be stateful, so each row constructs its own.
	clockNames := []string{"spread", "sawtooth"}
	cfFor := func(name string) clock.Factory {
		if name == "spread" {
			return clock.SpreadFactory(eps)
		}
		return clock.SawtoothFactory(eps, 8*ms)
	}
	type e15Spec struct {
		margin simtime.Duration
		cname  string
	}
	var specs []e15Spec
	for _, margin := range []simtime.Duration{0, eps, 2 * eps, 3 * eps, 4 * eps} {
		for _, cname := range clockNames {
			specs = append(specs, e15Spec{margin, cname})
		}
	}
	type e15Row struct {
		rowOut
		misfire bool
	}
	rows := parmapSlice(specs, func(s e15Spec) e15Row {
		n, err := countFalse(s.margin, cfFor(s.cname))
		if err != nil {
			return e15Row{rowOut: rowOut{fails: []string{err.Error()}}}
		}
		r := e15Row{misfire: s.margin < 4*eps && n > 0}
		r.cells = []string{fmtD(s.margin), fmtD(base + s.margin), s.cname, fmt.Sprint(n), checkMark(n == 0)}
		if s.margin >= 4*eps && n > 0 {
			r.fails = append(r.fails, fmt.Sprintf("margin %v (≥4ε): %d false suspicions under %s clocks", s.margin, n, s.cname))
		}
		return r
	})
	sawMisfire := false
	for _, r := range rows {
		fails = append(fails, r.fails...)
		if r.cells != nil {
			tb.AddRow(r.cells...)
		}
		sawMisfire = sawMisfire || r.misfire
	}
	if !sawMisfire {
		fails = append(fails, "no adversary ever caused a false suspicion below the 4ε margin; the margin appears unnecessary")
	}

	// Detection latency of a real crash under the safe timeout.
	p := detector.Params{Period: period, Timeout: detector.SafeTimeoutClock(period, bounds, eps), Heartbeats: 0}
	cfg := core.Config{N: 3, Bounds: bounds, Seed: 16, Clocks: clock.DriftFactory(eps, 7)}
	net := core.BuildClocked(cfg, detector.Factory(p))
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
		tb.AddRow("(crash)", fmtD(p.Timeout), "drift", fmt.Sprintf("detected in %v..%v", sum.Min, sum.Max),
			checkMark(len(latencies) == 2 && sum.Max <= bound))
		if len(latencies) != 2 {
			fails = append(fails, fmt.Sprintf("crash detected by %d/2 peers", len(latencies)))
		} else if sum.Max > bound {
			fails = append(fails, fmt.Sprintf("detection latency %v exceeds bound %v", sum.Max, bound))
		}
	}

	return Result{
		ID:       "E15",
		Title:    "failure detection: timeout margin sweep in D_C (π=5ms, d=[0.5ms,1.5ms], ε=800µs)",
		Output:   tb.String(),
		Failures: fails,
	}
}
