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
	"psclock/internal/stats"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// runObjectSpec drives the generalized object algorithm for one spec in
// one model and returns the history plus max latencies.
func runObjectSpec(model string, spec object.Spec, gen object.OpGen, eps simtime.Duration, seed int64) ([]linearize.GOp, simtime.Duration, simtime.Duration, error) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	ell := 50 * us
	d2p := bounds.Hi
	if model != "timed" {
		d2p += 2 * eps
	}
	if model == "mmt" {
		d2p += 24 * ell
	}
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: d2p, Epsilon: eps}
	cfg := core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: clock.DriftFactory(eps, seed), Ell: ell}
	net, err := core.Build(model, cfg, object.Factory(object.NewS, func() object.Spec { return spec }, p))
	if err != nil {
		return nil, 0, 0, err
	}
	done := object.AllDone(object.Attach(net, object.ClientConfig{
		Ops: 20, Think: simtime.NewInterval(0, 2*ms), Gen: gen, Seed: seed, Stagger: 300 * us,
	}))
	if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
		return nil, 0, 0, err
	}
	if !done() {
		return nil, 0, 0, fmt.Errorf("%s/%s: clients did not finish", model, spec.Name())
	}
	ops, err := object.History(net.Sys.Trace().Visible())
	if err != nil {
		return nil, 0, 0, err
	}
	var qMax, uMax simtime.Duration
	for _, o := range ops {
		if o.Pending() {
			continue
		}
		d := o.Res.Sub(o.Inv)
		if o.Result != "" || o.Op == "get" || o.Op == "read" || o.Op == "size" {
			if d > qMax {
				qMax = d
			}
		} else if d > uMax {
			uMax = d
		}
	}
	return ops, qMax, uMax, nil
}

// E11Objects regenerates Table 8: the §6 result generalized to other
// blind-update/query shared-memory objects ("we generalize our results to
// other shared memory objects in the full paper"), across all three
// models: linearizable everywhere, with the register's cost formulas.
func E11Objects() Result {
	eps := 400 * us
	objs := []struct {
		spec object.Spec
		gen  object.OpGen
	}{
		{object.Counter{}, object.CounterOps(0.5)},
		{object.GSet{}, object.GSetOps(0.5)},
		{object.MaxRegister{}, object.MaxOps(0.5)},
		{object.Register{}, object.RegisterOps(0.4)},
	}
	// Flatten the object × model grid into one row-spec list: every cell is
	// an independent seeded system. OpGens are stateless (the client's own
	// rand is passed in per call), so rows may share them.
	type e11Spec struct {
		spec  object.Spec
		gen   object.OpGen
		model string
	}
	var specs []e11Spec
	for _, o := range objs {
		for _, model := range []string{"timed", "clock", "mmt"} {
			specs = append(specs, e11Spec{o.spec, o.gen, model})
		}
	}
	rows := parmapSlice(specs, func(s e11Spec) rowOut {
		ops, qMax, uMax, err := runObjectSpec(s.model, s.spec, s.gen, eps, 1200)
		if err != nil {
			return rowOut{fails: []string{err.Error()}}
		}
		// Bounds: query 2ε+δ+c, update d'2−c, in clock time; allow the
		// ±2ε real-time envelope plus MMT's emission budget.
		slop := simtime.Duration(0)
		if s.model != "timed" {
			slop = 2 * eps
		}
		if s.model == "mmt" {
			slop += 24*50*us + 5*50*us
		}
		d2p := 3*ms + 2*eps
		if s.model == "timed" {
			d2p = 3 * ms
		}
		if s.model == "mmt" {
			d2p += 24 * 50 * us
		}
		qBound := 2*eps + 10*us + 500*us + slop
		uBound := d2p - 500*us + slop
		r := linearize.CheckObject(ops, s.spec, linearize.Options{Initial: s.spec.Init()})
		out := rowOut{cells: []string{s.spec.Name(), s.model, fmtD(qMax), fmtD(qBound), fmtD(uMax), fmtD(uBound), checkMark(r.OK)}}
		if !r.OK {
			out.fails = append(out.fails, fmt.Sprintf("%s/%s: not linearizable: %s", s.spec.Name(), s.model, r.Reason))
		}
		if qMax > qBound {
			out.fails = append(out.fails, fmt.Sprintf("%s/%s: query %v > bound %v", s.spec.Name(), s.model, qMax, qBound))
		}
		if uMax > uBound {
			out.fails = append(out.fails, fmt.Sprintf("%s/%s: update %v > bound %v", s.spec.Name(), s.model, uMax, uBound))
		}
		return out
	})
	tb := stats.NewTable("object", "model", "query max", "query bound", "update max", "update bound", "linearizable")
	fails := collectRows(tb, rows)
	return Result{ID: "E11", Title: "§6 generalized: blind-update/query objects across all models (ε=400µs)", Output: tb.String(), Failures: fails}
}

// E12Failures regenerates Table 9: the paper's §7.3 deferral of failures,
// explored. Crash-stop failures of non-participating replicas are
// harmless to algorithm S (its acks are timer-driven, never waiting on
// peers); a crashed *client's* operation is left pending and the rest
// stays linearizable; but a lossy link that drops an UPDATE leaves
// replicas divergent and violates linearizability — the reason the
// fault-tolerant extension needs [17]-style machinery.
func E12Failures() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 500 * us
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}

	build := func(seed int64, mutate func(*core.Net) error) (bool, error) {
		cfg := core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: clock.SpreadFactory(eps)}
		net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
		if mutate != nil {
			if err := mutate(net); err != nil {
				return false, err
			}
		}
		// Clients only at nodes 0 and 1; node 2 is a pure replica.
		var clients []*workload.Client
		for i := 0; i < 2; i++ {
			c := workload.NewClient(ta.NodeID(i), workload.Config{
				Ops: 30, Think: simtime.NewInterval(0, 1500*us), WriteRatio: 0.5, Seed: seed + int64(i), Stagger: 200 * us,
			})
			net.AddClient(c, ta.NodeID(i))
			clients = append(clients, c)
		}
		if _, err := net.Sys.RunQuiet(simtime.Time(30 * simtime.Second)); err != nil {
			return false, err
		}
		for _, c := range clients {
			_ = c // completion not required: crashed clients leave pending ops
		}
		ops, err := register.History(net.Sys.Trace().Visible())
		if err != nil {
			return false, err
		}
		return linearize.CheckLinearizable(ops, register.Initial.String()).OK, nil
	}
	crashAt := func(node ta.NodeID) func(*core.Net) error {
		return func(net *core.Net) error {
			_, err := core.CrashNode(net, node, simtime.Time(40*ms))
			return err
		}
	}

	// Rows fan out over the worker pool; each owns its own seeded system.
	type e12Row struct {
		row, fault       string
		expect, observed bool
		errs             []string
		skip             bool
	}
	mk := func(row, fault string, expect bool, fn func() (bool, error)) func() e12Row {
		return func() e12Row {
			observed, err := fn()
			r := e12Row{row: row, fault: fault, expect: expect, observed: observed}
			if err != nil {
				r.errs = append(r.errs, err.Error())
				r.skip = true
			}
			return r
		}
	}
	tasks := []func() e12Row{
		mk("1", "none (control)", true, func() (bool, error) {
			return build(1, nil)
		}),
		mk("2", "crash-stop of non-invoking replica at 40ms", true, func() (bool, error) {
			return build(2, crashAt(2))
		}),
		mk("3", "crash-stop of invoking node at 40ms", true, func() (bool, error) {
			return build(3, crashAt(1))
		}),
		// Row 4: lossy link 0→1 dropping every 3rd message: dropped UPDATEs
		// leave node 1 permanently divergent. A violation must be observed on
		// some seed. The seed sweep fans out fully and reduces to
		// "any violated" (the sequential version stopped at the first hit;
		// the verdict is identical).
		func() e12Row {
			r := e12Row{row: "4", fault: "lossy link n0→n1 (every 3rd message dropped)", expect: false}
			type verdict struct {
				violated bool
				err      string
			}
			verdicts := parmap(8, func(i int) verdict {
				ok, err := build(10+int64(i), func(net *core.Net) error {
					for _, e := range net.Edges {
						if e.Name() == "cedge(n0->n1)" {
							e.Drop = func(seq int, _ *rand.Rand) bool { return seq%3 == 2 }
						}
					}
					return nil
				})
				if err != nil {
					return verdict{err: err.Error()}
				}
				return verdict{violated: !ok}
			})
			violated := false
			for _, v := range verdicts {
				if v.err != "" {
					r.errs = append(r.errs, v.err)
				} else if v.violated {
					violated = true
				}
			}
			r.observed = !violated
			return r
		},
	}
	rows := parmapSlice(tasks, func(fn func() e12Row) e12Row { return fn() })

	tb := stats.NewTable("row", "fault", "expected", "observed", "ok")
	var fails []string
	for _, r := range rows {
		fails = append(fails, r.errs...)
		if r.skip {
			continue
		}
		exp, obs := "linearizable", "linearizable"
		if !r.expect {
			exp = "violated"
		}
		if !r.observed {
			obs = "violated"
		}
		ok := r.expect == r.observed
		tb.AddRow(r.row, r.fault, exp, obs, checkMark(ok))
		if !ok {
			fails = append(fails, fmt.Sprintf("row %s (%s): expected %s, observed %s", r.row, r.fault, exp, obs))
		}
	}
	return Result{ID: "E12", Title: "§7.3 failures explored: crash-stop tolerated, lossy links not", Output: tb.String(), Failures: fails}
}
