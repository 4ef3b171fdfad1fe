package experiments

import (
	"fmt"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

// registerActions is the visible interface of the register problem.
func isRegisterAction(name string) bool {
	switch name {
	case register.ActRead, register.ActWrite, register.ActReturn, register.ActAck:
		return true
	}
	return false
}

// gammaTrace builds the γ_α timed sequence of Definition 4.2 restricted to
// the visible register actions: each action paired with its clock value,
// reordered into non-decreasing clock order (stably).
func gammaTrace(net *core.Net) ta.Trace {
	var g ta.Trace
	seq := 0
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			if !isRegisterAction(s.Action.Name) {
				continue
			}
			g = append(g, ta.Event{Action: s.Action, At: s.Clock, Seq: seq})
			seq++
		}
	}
	return trace.SortByTime(g)
}

// realTrace collects the same actions with their real times, in the same
// per-node order as gammaTrace's input.
func realTrace(net *core.Net) ta.Trace {
	var g ta.Trace
	seq := 0
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			if !isRegisterAction(s.Action.Name) {
				continue
			}
			g = append(g, ta.Event{Action: s.Action, At: s.Real, Seq: seq})
			seq++
		}
	}
	return g
}

// E5Sim1Shift regenerates Table 5 (Theorems 4.6/4.7): in every clock-model
// execution α of the transformed S, (1) every action's clock value is
// within ε of its real time, so t-trace(α) =_ε γ_α; and (2) γ_α is a trace
// of the timed-model system solving Q, so the clock-timed history is
// 2ε-superlinearizable — the constructive content of the simulation proof,
// replayed on recorded data.
func E5Sim1Shift() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	delta := 10 * us
	c := 500 * us
	// Fixed clock-family order (was map iteration, which shuffled rows);
	// factories are built per row since they may carry state.
	clockNames := []string{"spread", "drift", "sawtooth"}
	factoryFor := func(name string, eps simtime.Duration) clock.Factory {
		switch name {
		case "spread":
			return clock.SpreadFactory(eps)
		case "drift":
			return clock.DriftFactory(eps, 47)
		default:
			return clock.SawtoothFactory(eps, 8*ms)
		}
	}
	type e5Spec struct {
		eps   simtime.Duration
		cname string
	}
	var specs []e5Spec
	for _, eps := range []simtime.Duration{100 * us, 500 * us, 1 * ms} {
		for _, cname := range clockNames {
			specs = append(specs, e5Spec{eps, cname})
		}
	}
	rows := parmapSlice(specs, func(sp e5Spec) rowOut {
		var r rowOut
		eps, cname := sp.eps, sp.cname
		p := register.Params{C: c, Delta: delta, D2: bounds.Hi + 2*eps, Epsilon: eps}
		out, err := run(runSpec{
			model:   "clock",
			factory: register.Factory(register.NewS, p),
			n:       3, bounds: bounds, seed: 505 + int64(eps),
			clocks: factoryFor(cname, eps), delays: channel.SpreadDelay,
			ops: 25, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.4,
		})
		if err != nil {
			r.fails = append(r.fails, err.Error())
			return r
		}
		gamma := gammaTrace(out.net)
		real := realTrace(out.net)
		shift, err := trace.MinEps(real, gamma, trace.ByNode)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: traces unrelated: %v", eps, cname, err))
			return r
		}
		eqOK := shift <= eps
		gops, herr := register.History(gamma)
		gSuper := false
		if herr == nil {
			gSuper = linearize.CheckSuperLinearizable(gops, register.Initial.String(), eps).OK
		}
		realLin := linCheck(out, 0)
		r.cells = []string{fmtD(eps), cname, fmtD(shift), checkMark(eqOK), checkMark(gSuper), checkMark(realLin)}
		if !eqOK {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: trace shift %v > ε", eps, cname, shift))
		}
		if herr != nil {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: γ_α history: %v", eps, cname, herr))
		} else if !gSuper {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: γ_α not ε-superlinearizable", eps, cname))
		}
		if !realLin {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: real trace not linearizable", eps, cname))
		}
		return r
	})
	tb := stats.NewTable("ε", "clocks", "max |clock−real|", "=_ε holds", "γ_α superlin.", "real trace lin.")
	fails := collectRows(tb, rows)
	return Result{ID: "E5", Title: "Theorem 4.7: simulation-1 real-time preservation", Output: tb.String(), Failures: fails}
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

// E6ClockDelay regenerates Figure 2 (Lemma 4.5): in the clock model, the
// clock time used by a message lies in [max(0, d1−2ε), d2+2ε].
func E6ClockDelay() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	type e6Spec struct {
		eps   simtime.Duration
		dname string
	}
	var specs []e6Spec
	for _, eps := range []simtime.Duration{100 * us, 500 * us, 1 * ms} {
		for _, dname := range []string{"min", "max", "spread"} {
			specs = append(specs, e6Spec{eps, dname})
		}
	}
	rows := parmapSlice(specs, func(sp e6Spec) rowOut {
		var r rowOut
		eps, dname := sp.eps, sp.dname
		delays, err := channel.Named(dname)
		if err != nil {
			r.fails = append(r.fails, err.Error())
			return r
		}
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
		out, err := run(runSpec{
			model:   "clock",
			factory: register.Factory(register.NewS, p),
			n:       3, bounds: bounds, seed: 606 + int64(eps),
			clocks: clock.SpreadFactory(eps), delays: delays,
			ops: 20, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.5,
		})
		if err != nil {
			r.fails = append(r.fails, err.Error())
			return r
		}
		ds := clockDelays(out.net)
		if len(ds) == 0 {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: no messages measured", eps, dname))
			return r
		}
		sum := stats.Summarize(ds)
		lo := (bounds.Lo - 2*eps).Max(0)
		hi := bounds.Hi + 2*eps
		within := sum.Min >= lo && sum.Max <= hi
		r.cells = []string{fmtD(eps), dname, fmt.Sprint(sum.N), fmtD(sum.Min), fmtD(sum.Max), fmtD(lo), fmtD(hi), checkMark(within)}
		if !within {
			r.fails = append(r.fails, fmt.Sprintf("ε=%v/%s: clock delays [%v, %v] outside [%v, %v]",
				eps, dname, sum.Min, sum.Max, lo, hi))
		}
		return r
	})
	tb := stats.NewTable("ε", "delays", "messages", "min clk-delay", "max clk-delay", "lower bound", "upper bound", "within")
	fails := collectRows(tb, rows)
	return Result{ID: "E6", Title: "Lemma 4.5: message clock-time delays (d=[1ms,3ms])", Output: tb.String(), Failures: fails}
}

// E7Buffering regenerates Figure 3 (§7.2): the receive buffer's work as a
// function of d1/2ε — no buffering at all once d1 ≥ 2ε, and hold times
// bounded by 2ε−d1 below that.
func E7Buffering() Result {
	eps := 500 * us
	d2gap := 2 * ms
	type e7Row struct {
		rowOut
		frac, hold *stats.Point
	}
	d1s := []simtime.Duration{0, 250 * us, 500 * us, 750 * us, 1 * ms, 1500 * us, 2 * ms}
	rows := parmapSlice(d1s, func(d1 simtime.Duration) e7Row {
		var r e7Row
		bounds := simtime.NewInterval(d1, d1+d2gap)
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
		out, err := run(runSpec{
			model:   "clock",
			factory: register.Factory(register.NewS, p),
			n:       3, bounds: bounds, seed: 707 + int64(d1),
			clocks: clock.SpreadFactory(eps), delays: channel.MinDelay,
			ops: 25, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.5,
		})
		if err != nil {
			r.fails = append(r.fails, err.Error())
			return r
		}
		var buffered, received int
		var heldMax simtime.Duration
		for _, n := range out.net.Clocked {
			b, r, h := n.BufferStats()
			buffered += b
			received += r
			if h > heldMax {
				heldMax = h
			}
		}
		frac := 0.0
		if received > 0 {
			frac = float64(buffered) / float64(received)
		}
		bound := (2*eps - d1).Max(0)
		r.cells = []string{fmtD(d1), fmt.Sprintf("%.2f", float64(d1)/float64(2*eps)),
			fmt.Sprint(received), fmt.Sprint(buffered), fmt.Sprintf("%.2f", frac),
			fmtD(heldMax), fmtD(bound)}
		ratio := float64(d1) / float64(2*eps)
		r.frac = &stats.Point{X: ratio, Y: frac}
		r.hold = &stats.Point{X: ratio, Y: heldMax.Millis()}
		if d1 >= 2*eps && buffered != 0 {
			r.fails = append(r.fails, fmt.Sprintf("d1=%v ≥ 2ε: %d messages buffered (§7.2 says none)", d1, buffered))
		}
		if heldMax > bound {
			r.fails = append(r.fails, fmt.Sprintf("d1=%v: hold %v > bound %v", d1, heldMax, bound))
		}
		if !linCheck(out, 0) {
			r.fails = append(r.fails, fmt.Sprintf("d1=%v: not linearizable", d1))
		}
		return r
	})
	tb := stats.NewTable("d1", "d1/2ε", "received", "buffered", "fraction", "max hold (clk)", "bound 2ε−d1")
	var fails []string
	var figFrac, figHold []stats.Point
	for _, r := range rows {
		if r.cells != nil {
			tb.AddRow(r.cells...)
		}
		fails = append(fails, r.fails...)
		if r.frac != nil {
			figFrac = append(figFrac, *r.frac)
			figHold = append(figHold, *r.hold)
		}
	}
	fig := stats.Chart("Figure 3: receive-buffer work vs d1/2ε", "d1/2ε", "fraction buffered (f), max hold ms (h)",
		[]stats.Series{
			{Name: "fraction buffered", Marker: 'f', Points: figFrac},
			{Name: "max hold (ms)", Marker: 'h', Points: figHold},
		}, 56, 10)
	return Result{ID: "E7", Title: "§7.2: receive-buffer cost (ε=500µs, min-delay adversary, max-skew clocks)", Output: tb.String() + fig, Failures: fails}
}

// measuredK returns the smallest k satisfying the Lemma 4.3 rate
// restriction on the recorded execution: at most k output actions per node
// in any clock interval of length kℓ.
func measuredK(net *core.Net, ell simtime.Duration) int {
	perNode := make(map[ta.NodeID][]simtime.Time)
	for _, n := range net.Clocked {
		for _, s := range n.Stamps() {
			switch s.Action.Name {
			case ta.NameESendMsg, register.ActReturn, register.ActAck:
				perNode[n.ID()] = append(perNode[n.ID()], s.Clock)
			}
		}
	}
	for k := 1; ; k++ {
		window := simtime.Duration(k) * ell
		ok := true
		for _, times := range perNode {
			// times are non-decreasing per node (stamps are recorded in
			// clock order).
			lo := 0
			for hi := range times {
				for times[hi].Sub(times[lo]) > window {
					lo++
				}
				if hi-lo+1 > k {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return k
		}
	}
}

// E8MMTShift regenerates Table 6 and Figure 4 (Theorems 5.1/5.2): running
// the same scripted workload, with identical seeds, through D_C and D_M,
// the MMT system's visible trace is the clock system's with inputs at
// identical times and outputs shifted at most kℓ+2ε+3ℓ into the future —
// i.e. the traces are related by ≤_{δ,K} with δ = the theorem's bound.
func E8MMTShift() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 200 * us
	ells := []simtime.Duration{25 * us, 50 * us, 100 * us, 200 * us}
	rows := parmapSlice(ells, func(ell simtime.Duration) rowOut {
		var r rowOut
		kHeadroom := 24 * ell // generous d'2 headroom; validated against measured k below
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + kHeadroom, Epsilon: eps}
		spacing := 40 * ms // far above worst-case latency: keeps both runs aligned
		scripts := make([][]workload.ScriptOp, 3)
		for i := range scripts {
			scripts[i] = workload.MakeScript(12, simtime.Time(i)*simtime.Time(ms), spacing, 0.4, 808+int64(i))
		}
		runModel := func(model string) (*core.Net, ta.Trace, error) {
			cfg := core.Config{
				N:      3,
				Bounds: bounds,
				Seed:   909,
				Clocks: clock.DriftFactory(eps, 11),
				Ell:    ell,
			}
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
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v clock run: %v", ell, err))
			return r
		}
		mNet, mTrace, err := runModel("mmt")
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v mmt run: %v", ell, err))
			return r
		}
		k := measuredK(cNet, ell)
		bound := simtime.Duration(k)*ell + 2*eps + 3*ell
		shift, err := trace.MinDelta(cTrace, mTrace, trace.OutputsByNode)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v: traces not ≤_δ related: %v", ell, err))
			r.cells = []string{fmtD(ell), fmt.Sprint(k), fmtD(bound), "unrelated", "NO", "-"}
			return r
		}
		if simtime.Duration(k)*ell > kHeadroom {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v: measured kℓ=%v exceeds the d'2 headroom %v", ell, simtime.Duration(k)*ell, kHeadroom))
		}
		within := shift <= bound
		var queuedMax simtime.Duration
		for _, n := range mNet.MMT {
			for _, st := range n.Stamps() {
				if st.Queued > queuedMax {
					queuedMax = st.Queued
				}
			}
		}
		r.cells = []string{fmtD(ell), fmt.Sprint(k), fmtD(bound), fmtD(shift), checkMark(within), fmtD(queuedMax)}
		if !within {
			r.fails = append(r.fails, fmt.Sprintf("ℓ=%v: shift %v > bound %v", ell, shift, bound))
		}
		return r
	})
	tb := stats.NewTable("ℓ", "k (measured)", "bound kℓ+2ε+3ℓ", "measured shift δ", "within", "max queued")
	fails := collectRows(tb, rows)
	return Result{ID: "E8", Title: "Theorems 5.1/5.2: output shift of D_M vs D_C (ε=200µs, lazy steps)", Output: tb.String(), Failures: fails}
}
