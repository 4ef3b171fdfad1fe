package experiments

import (
	"fmt"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

// registerTrace is the run's visible register actions, node by node, each
// at its clock value when clocked is set and else at its real time: the
// real t-trace and, once sorted into clock order, the γ_α timed sequence
// of Definition 4.2.
func registerTrace(net *core.Net, clocked bool) ta.Trace {
	var g ta.Trace
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			switch s.Action.Name {
			case register.ActRead, register.ActWrite, register.ActReturn, register.ActAck:
				at := s.Real
				if clocked {
					at = s.Clock
				}
				g = append(g, ta.Event{Action: s.Action, At: at, Seq: len(g)})
			}
		}
	}
	return g
}

// e5Sim1Shift regenerates Table 5 (Theorems 4.6/4.7): in every clock-model
// execution α of the transformed S, (1) every action's clock value is
// within ε of its real time, so t-trace(α) =_ε γ_α; and (2) γ_α is a trace
// of the timed-model system solving Q, so the clock-timed history is
// 2ε-superlinearizable — the constructive content of the simulation proof,
// replayed on recorded data.
func e5Sim1Shift() (string, []string) {
	knobs := grid([]simtime.Duration{100 * us, 500 * us, 1 * ms}, "spread", "drift", "sawtooth")
	rows := table(knobs, func(k knob) runSpec {
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi + 2*k.d, Epsilon: k.d}
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 505 + int64(k.d), Clocks: clocks(k.name, k.d, 47), NewDelay: channel.SpreadDelay},
			model:  "clock", factory: register.Factory(register.NewS, p), key: []string{fmtD(k.d), k.name},
			ops: 25, think: think, writeRatio: 0.4, checks: []check{linCheck},
		}
	}, func(k knob, m measured) row {
		gamma := trace.SortByTime(registerTrace(m.net, true))
		shift, err := trace.MinEps(registerTrace(m.net, false), gamma, trace.ByNode)
		if err != nil {
			return row{fails: []string{fmt.Sprintf("%s: traces unrelated: %v", m.spec.label(), err)}}
		}
		gops, err := register.History(gamma)
		if err != nil {
			return row{fails: []string{fmt.Sprintf("%s: γ_α history: %v", m.spec.label(), err)}}
		}
		gSuper := superCheck(k.d).batch(gops).OK
		r := row{cells: []string{fmtD(shift), checkMark(shift <= k.d), checkMark(gSuper), checkMark(m.verdict["lin"].OK)}}
		if shift > k.d {
			r.fails = append(r.fails, fmt.Sprintf("%s: trace shift %v > ε", m.spec.label(), shift))
		}
		if !gSuper {
			r.fails = append(r.fails, fmt.Sprintf("%s: γ_α not ε-superlinearizable", m.spec.label()))
		}
		return r
	})
	return render(rows, "ε", "clocks", "max |clock−real|", "=_ε holds", "γ_α superlin.", "real trace lin.")
}

// clockDelays extracts each delivered message's clock-time delay: the
// receiving clock value minus the sender's tag (Lemma 4.5's quantity).
func clockDelays(net *core.Net) []simtime.Duration {
	sent := make(map[string]simtime.Time)
	var delays []simtime.Duration
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			if s.Action.Name == ta.NameESendMsg {
				tm := s.Action.Payload.(ta.TaggedMsg)
				sent[fmt.Sprintf("%v->%v:%v", s.Action.Node, s.Action.Peer, tm.Body)] = tm.SentClock
			}
		}
	}
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			if s.Action.Name == ta.NameRecvMsg {
				msg := s.Action.Payload.(ta.Msg)
				key := fmt.Sprintf("%v->%v:%v", s.Action.Peer, s.Action.Node, msg.Body)
				if tag, ok := sent[key]; ok {
					delays = append(delays, simtime.Duration(s.Clock-tag))
				}
			}
		}
	}
	return delays
}

// e6ClockDelay regenerates Figure 2 (Lemma 4.5): in the clock model, the
// clock time used by a message lies in [max(0, d1−2ε), d2+2ε].
func e6ClockDelay() (string, []string) {
	knobs := grid([]simtime.Duration{100 * us, 500 * us, 1 * ms}, "min", "max", "spread")
	rows := table(knobs, func(k knob) runSpec {
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi + 2*k.d, Epsilon: k.d}
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 606 + int64(k.d), Clocks: clock.SpreadFactory(k.d), NewDelay: must(channel.Named(k.name))},
			model:  "clock", factory: register.Factory(register.NewS, p), key: []string{fmtD(k.d), k.name},
			ops: 20, think: think, writeRatio: 0.5,
		}
	}, func(k knob, m measured) row {
		ds := clockDelays(m.net)
		if len(ds) == 0 {
			return row{fails: []string{fmt.Sprintf("%s: no messages measured", m.spec.label())}}
		}
		sum := stats.Summarize(ds)
		lo := (links.Lo - 2*k.d).Max(0)
		hi := links.Hi + 2*k.d
		within := sum.Min >= lo && sum.Max <= hi
		r := row{cells: []string{fmt.Sprint(sum.N), fmtD(sum.Min), fmtD(sum.Max), fmtD(lo), fmtD(hi), checkMark(within)}}
		if !within {
			r.fails = append(r.fails, fmt.Sprintf("%s: clock delays [%v, %v] outside [%v, %v]", m.spec.label(), sum.Min, sum.Max, lo, hi))
		}
		return r
	})
	return render(rows, "ε", "delays", "messages", "min clk-delay", "max clk-delay", "lower bound", "upper bound", "within")
}

// e7Buffering regenerates Figure 3 (§7.2): the receive buffer's work as a
// function of d1/2ε — no buffering at all once d1 ≥ 2ε, and hold times
// bounded by 2ε−d1 below that.
func e7Buffering() (string, []string) {
	eps := 500 * us
	rows := table([]simtime.Duration{0, 250 * us, 500 * us, 750 * us, 1 * ms, 1500 * us, 2 * ms}, func(d1 simtime.Duration) runSpec {
		bounds := simtime.NewInterval(d1, d1+2*ms)
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
		return runSpec{
			Config: core.Config{N: 3, Bounds: bounds, Seed: 707 + int64(d1), Clocks: clock.SpreadFactory(eps), NewDelay: channel.MinDelay},
			model:  "clock", factory: register.Factory(register.NewS, p), key: []string{fmtD(d1)},
			ops: 25, think: think, writeRatio: 0.5, checks: []check{linCheck},
		}
	}, func(d1 simtime.Duration, m measured) row {
		var buffered, received int
		var held simtime.Duration
		for _, n := range m.net.Clocked {
			b, r, h := n.BufferStats()
			buffered += b
			received += r
			held = held.Max(h)
		}
		frac := 0.0
		if received > 0 {
			frac = float64(buffered) / float64(received)
		}
		ratio := float64(d1) / float64(2*eps)
		bound := (2*eps - d1).Max(0)
		r := row{
			cells: []string{fmt.Sprintf("%.2f", ratio), fmt.Sprint(received), fmt.Sprint(buffered), fmt.Sprintf("%.2f", frac), fmtD(held), fmtD(bound)},
			pts:   []stats.Point{{X: ratio, Y: frac}, {X: ratio, Y: held.Millis()}},
		}
		if d1 >= 2*eps && buffered != 0 {
			r.fails = append(r.fails, fmt.Sprintf("d1=%v ≥ 2ε: %d messages buffered (§7.2 says none)", d1, buffered))
		}
		if held > bound {
			r.fails = append(r.fails, fmt.Sprintf("d1=%v: hold %v > bound %v", d1, held, bound))
		}
		return r
	})
	tb, fails := render(rows, "d1", "d1/2ε", "received", "buffered", "fraction", "max hold (clk)", "bound 2ε−d1")
	return tb + chart("Figure 3: receive-buffer work vs d1/2ε", "d1/2ε", "fraction buffered (f), max hold ms (h)", rows,
		stats.Series{Name: "fraction buffered", Marker: 'f'}, stats.Series{Name: "max hold (ms)", Marker: 'h'}), fails
}

// measuredK returns the smallest k satisfying the Lemma 4.3 rate
// restriction on per-node output clock times: at most k outputs at a node
// in any clock interval of length kℓ. Each node's times are non-decreasing.
func measuredK(times [][]simtime.Time, ell simtime.Duration) int {
	for k := 1; ; k++ {
		window := simtime.Duration(k) * ell
		ok := true
		for _, ts := range times {
			lo := 0
			for hi := range ts {
				for ts[hi].Sub(ts[lo]) > window {
					lo++
				}
				ok = ok && hi-lo+1 <= k
			}
		}
		if ok {
			return k
		}
	}
}

// e8MMTShift regenerates Table 6 and Figure 4 (Theorems 5.1/5.2): running
// the same scripted workload, with identical seeds, through D_C and D_M,
// the MMT system's visible trace is the clock system's with inputs at
// identical times and outputs shifted at most kℓ+2ε+3ℓ into the future —
// i.e. the traces are related by ≤_{δ,K} with δ = the theorem's bound.
func e8MMTShift() (string, []string) {
	eps := 200 * us
	rows := parmapSlice([]simtime.Duration{25 * us, 50 * us, 100 * us, 200 * us}, func(ell simtime.Duration) row {
		kHeadroom := 24 * ell // generous d'2 headroom; validated against measured k below
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi + 2*eps + kHeadroom, Epsilon: eps}
		spacing := 40 * ms // far above worst-case latency: keeps both runs aligned
		scripts := make([][]workload.ScriptOp, 3)
		for i := range scripts {
			scripts[i] = workload.MakeScript(12, simtime.Time(i)*simtime.Time(ms), spacing, 0.4, 808+int64(i))
		}
		runModel := func(model string) (*core.Net, ta.Trace, error) {
			cfg := core.Config{N: 3, Bounds: links, Seed: 909, Clocks: clock.DriftFactory(eps, 11), Ell: ell}
			net, err := core.Build(model, cfg, register.Factory(register.NewS, p))
			if err != nil {
				return nil, nil, err
			}
			clients := workload.AttachScripted(net, scripts)
			if err := net.Sys.Run(simtime.Time(700 * ms)); err != nil {
				return nil, nil, err
			}
			for _, c := range clients {
				if c.Err != nil {
					return nil, nil, c.Err
				}
				if c.Done != 12 {
					return nil, nil, fmt.Errorf("%s finished %d/12", c.Name(), c.Done)
				}
			}
			return net, net.Sys.Trace().Visible(), nil
		}
		cNet, cTrace, err := runModel("clock")
		if err != nil {
			return row{fails: []string{fmt.Sprintf("ℓ=%v clock run: %v", ell, err)}}
		}
		mNet, mTrace, err := runModel("mmt")
		if err != nil {
			return row{fails: []string{fmt.Sprintf("ℓ=%v mmt run: %v", ell, err)}}
		}
		// The clock run's output clock times, per node: sends and responses.
		var times [][]simtime.Time
		for _, n := range cNet.Clocked {
			var ts []simtime.Time
			for _, s := range n.Stamps() {
				switch s.Action.Name {
				case ta.NameESendMsg, register.ActReturn, register.ActAck:
					ts = append(ts, s.Clock)
				}
			}
			times = append(times, ts)
		}
		k := measuredK(times, ell)
		bound := simtime.Duration(k)*ell + 2*eps + 3*ell
		shift, err := trace.MinDelta(cTrace, mTrace, trace.OutputsByNode)
		if err != nil {
			return row{cells: []string{fmtD(ell), fmt.Sprint(k), fmtD(bound), "unrelated", "NO", "-"},
				fails: []string{fmt.Sprintf("ℓ=%v: traces not ≤_δ related: %v", ell, err)}}
		}
		var r row
		if simtime.Duration(k)*ell > kHeadroom {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v: measured kℓ=%v exceeds the d'2 headroom %v", ell, simtime.Duration(k)*ell, kHeadroom))
		}
		var queuedMax simtime.Duration
		for _, n := range mNet.MMT {
			for _, st := range n.Stamps() {
				queuedMax = queuedMax.Max(st.Queued)
			}
		}
		r.cells = []string{fmtD(ell), fmt.Sprint(k), fmtD(bound), fmtD(shift), checkMark(shift <= bound), fmtD(queuedMax)}
		if shift > bound {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v: shift %v > bound %v", ell, shift, bound))
		}
		return r
	})
	return render(rows, "ℓ", "k (measured)", "bound kℓ+2ε+3ℓ", "measured shift δ", "within", "max queued")
}
