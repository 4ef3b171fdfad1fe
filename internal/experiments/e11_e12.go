package experiments

import (
	"fmt"
	"math/rand"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/object"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// e11Objects regenerates Table 8: the §6 result generalized to other
// blind-update/query shared-memory objects ("we generalize our results to
// other shared memory objects in the full paper"), across all three
// models: linearizable everywhere, with the register's cost formulas.
func e11Objects() (string, []string) {
	eps, ell := 400*us, 50*us
	// The object × model grid: every cell is an independent seeded
	// system. OpGens are stateless (the client's own rand is passed in per
	// call), so rows may share them.
	type e11Knob struct {
		spec  object.Spec
		gen   object.OpGen
		model string
	}
	var knobs []e11Knob
	for _, o := range []e11Knob{
		{spec: object.Counter{}, gen: object.CounterOps(0.5)},
		{spec: object.GSet{}, gen: object.GSetOps(0.5)},
		{spec: object.MaxRegister{}, gen: object.MaxOps(0.5)},
		{spec: object.Register{}, gen: object.RegisterOps(0.4)},
	} {
		for _, model := range []string{"timed", "clock", "mmt"} {
			o.model = model
			knobs = append(knobs, o)
		}
	}
	rows := parmapSlice(knobs, func(k e11Knob) row {
		label := k.spec.Name() + "/" + k.model
		// d'2, and the slop a real-time latency may show over its
		// clock-time bound: the ±2ε envelope off D_T, and in D_M also
		// Theorem 5.2's headroom for the step bound and the emission budget.
		d2p, slop := links.Hi, simtime.Duration(0)
		if k.model != "timed" {
			d2p, slop = d2p+2*eps, 2*eps
		}
		if k.model == "mmt" {
			d2p, slop = d2p+24*ell, slop+24*ell+5*ell
		}
		p := register.Params{C: 500 * us, Delta: 10 * us, D2: d2p, Epsilon: eps}
		cfg := core.Config{N: 3, Bounds: links, Seed: 1200, Clocks: clock.DriftFactory(eps, 1200), Ell: ell}
		net, err := core.Build(k.model, cfg, object.Factory(object.NewS, func() object.Spec { return k.spec }, p))
		if err != nil {
			return row{fails: []string{err.Error()}}
		}
		done := object.AllDone(object.Attach(net, object.ClientConfig{
			Ops: 20, Think: think, Gen: k.gen, Seed: 1200, Stagger: 300 * us,
		}))
		if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
			return row{fails: []string{err.Error()}}
		}
		if !done() {
			return row{fails: []string{label + ": clients did not finish"}}
		}
		ops, err := object.History(net.Sys.Trace().Visible())
		if err != nil {
			return row{fails: []string{err.Error()}}
		}
		var qMax, uMax simtime.Duration
		for _, o := range ops {
			if o.Pending() {
				continue
			}
			if d := o.Res.Sub(o.Inv); o.Result != "" || o.Value == "get" || o.Value == "read" || o.Value == "size" {
				qMax = qMax.Max(d)
			} else {
				uMax = uMax.Max(d)
			}
		}
		// Bounds: query 2ε+δ+c, update d'2−c, in clock time.
		qBound := 2*eps + p.Delta + p.C + slop
		uBound := d2p - p.C + slop
		v := linearize.CheckObject(ops, k.spec, linearize.Options{Initial: k.spec.Init()})
		r := row{cells: []string{k.spec.Name(), k.model, fmtD(qMax), fmtD(qBound), fmtD(uMax), fmtD(uBound), checkMark(v.OK)}}
		if !v.OK {
			r.fails = append(r.fails, fmt.Sprintf("%s: not linearizable: %s", label, v.Reason))
		}
		if qMax > qBound {
			r.fails = append(r.fails, fmt.Sprintf("%s: query %v > bound %v", label, qMax, qBound))
		}
		if uMax > uBound {
			r.fails = append(r.fails, fmt.Sprintf("%s: update %v > bound %v", label, uMax, uBound))
		}
		return r
	})
	return render(rows, "object", "model", "query max", "query bound", "update max", "update bound", "linearizable")
}

// e12Failures regenerates Table 9: the paper's §7.3 deferral of failures,
// explored. Crash-stop failures of non-participating replicas are
// harmless to algorithm S (its acks are timer-driven, never waiting on
// peers); a crashed *client's* operation is left pending and the rest
// stays linearizable; but a lossy link that drops an UPDATE leaves
// replicas divergent and violates linearizability — the reason the
// fault-tolerant extension needs [17]-style machinery.
func e12Failures() (string, []string) {
	eps := 500 * us
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi + 2*eps, Epsilon: eps}
	// build runs S with clients only at nodes 0 and 1, node 2 a pure
	// replica, and reports whether the history is linearizable. Completion
	// is not required: crashed clients leave pending ops.
	build := func(seed int64, mutate func(*core.Net) error) (bool, error) {
		cfg := core.Config{N: 3, Bounds: links, Seed: seed, Clocks: clock.SpreadFactory(eps)}
		net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
		if err := mutate(net); err != nil {
			return false, err
		}
		for i := 0; i < 2; i++ {
			net.AddClient(workload.NewClient(ta.NodeID(i), workload.Config{
				Ops: 30, Think: simtime.NewInterval(0, 1500*us), WriteRatio: 0.5, Seed: seed + int64(i), Stagger: 200 * us,
			}), ta.NodeID(i))
		}
		if _, err := net.Sys.RunQuiet(simtime.Time(30 * simtime.Second)); err != nil {
			return false, err
		}
		ops, err := register.History(net.Sys.Trace().Visible())
		if err != nil {
			return false, err
		}
		return linCheck.batch(ops).OK, nil
	}
	crash := func(seed int64, node ta.NodeID) func() (bool, error) {
		return func() (bool, error) {
			return build(seed, func(net *core.Net) error {
				_, err := core.CrashNode(net, node, simtime.Time(40*ms))
				return err
			})
		}
	}
	// The lossy link 0→1 drops every 3rd message: dropped UPDATEs leave
	// node 1 permanently divergent.
	lossy := func(net *core.Net) error {
		for _, e := range net.Edges {
			if e.Name() == "cedge(n0->n1)" {
				e.Drop = func(seq int, _ *rand.Rand) bool { return seq%3 == 2 }
			}
		}
		return nil
	}
	return matrix("linearizable", []claim{
		{[]string{"1", "none (control)"}, true, func() (bool, error) {
			return build(1, func(*core.Net) error { return nil })
		}},
		{[]string{"2", "crash-stop of non-invoking replica at 40ms"}, true, crash(2, 2)},
		{[]string{"3", "crash-stop of invoking node at 40ms"}, true, crash(3, 1)},
		// A violation must be observed on some seed.
		{[]string{"4", "lossy link n0→n1 (every 3rd message dropped)"}, false, func() (bool, error) {
			return onEverySeed(10, func(seed int64) (bool, error) { return build(seed, lossy) })
		}},
	}, "row", "fault")
}
