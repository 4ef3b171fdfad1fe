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
)

// causalProbe is a minimal algorithm that checks Lamport's condition — a
// message must never arrive at a (clock) time earlier than the (clock)
// time at which it was sent [5] — which is exactly the property the
// receive buffer R_ji,ε exists to restore (§4). Each node periodically
// broadcasts its current time; receivers count violations.
type causalProbe struct {
	interval   simtime.Duration
	rounds     int
	violations *int
}

var _ core.Algorithm = (*causalProbe)(nil)

func (c *causalProbe) Start(ctx core.Context) {
	ctx.SetTimer(ctx.Time().Add(c.interval), 0)
}

func (c *causalProbe) OnInput(core.Context, string, any) {}

func (c *causalProbe) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	sent, ok := body.(simtime.Time)
	if !ok {
		panic(fmt.Sprintf("experiments: causal probe got %T", body))
	}
	if ctx.Time().Before(sent) {
		*c.violations++
	}
}

func (c *causalProbe) OnTimer(ctx core.Context, round any) {
	r := round.(int)
	for j := 0; j < ctx.N(); j++ {
		if ta.NodeID(j) != ctx.ID() {
			ctx.Send(ta.NodeID(j), ctx.Time())
		}
	}
	if r+1 < c.rounds {
		ctx.SetTimer(ctx.Time().Add(c.interval), r+1)
	}
}

// runCausal runs the probe in the clock model and returns the violation
// count.
func runCausal(d1 simtime.Duration, eps simtime.Duration, noBuffer bool) (int, error) {
	violations := 0
	cfg := core.Config{
		N:                 3,
		Bounds:            simtime.NewInterval(d1, d1+2*ms),
		Seed:              33,
		Clocks:            clock.SpreadFactory(eps),
		NewDelay:          channel.MinDelay,
		DisableRecvBuffer: noBuffer,
	}
	net := core.BuildClocked(cfg, func(ta.NodeID, int) core.Algorithm {
		return &causalProbe{interval: 2 * ms, rounds: 25, violations: &violations}
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		return 0, err
	}
	return violations, nil
}

// E9Matrix regenerates Table 7: the verification matrix, including
// mutation rows that must fail — showing both that the system-under-test
// satisfies the paper's claims and that the checkers would catch
// violations.
func E9Matrix() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 800 * us
	delta := 10 * us
	regRun := func(model string, factory core.AlgorithmFactory, cf clock.Factory, noBuffer bool, ell simtime.Duration) (runOut, error) {
		return run(runSpec{
			model: model, factory: factory,
			n: 3, bounds: bounds, seed: 1001,
			clocks: cf, delays: channel.UniformDelay,
			ell: ell, noBuffer: noBuffer,
			ops: 25, think: simtime.NewInterval(0, 1500*us), writeRatio: 0.4,
		})
	}

	pL := register.Params{C: 200 * us, Delta: delta, D2: bounds.Hi, Epsilon: 0}
	pS := register.Params{C: 200 * us, Delta: delta, D2: bounds.Hi + 2*eps, Epsilon: eps}

	// Each matrix row is an independent seeded system; verdicts fan out
	// over the worker pool and the table is assembled in row order.
	type e9Row struct {
		row, system, property string
		expect, observed      bool
		errs                  []string
		skip                  bool // run failed before a verdict was reached
	}
	mk := func(row, system, property string, expect bool, fn func() (bool, error)) func() e9Row {
		return func() e9Row {
			observed, err := fn()
			r := e9Row{row: row, system: system, property: property, expect: expect, observed: observed}
			if err != nil {
				r.errs = append(r.errs, err.Error())
				r.skip = true
			}
			return r
		}
	}
	tasks := []func() e9Row{
		mk("1", "L in D_T", "linearizable", true, func() (bool, error) {
			out, err := regRun("timed", register.Factory(register.NewL, pL), nil, false, 0)
			if err != nil {
				return false, err
			}
			return linCheck(out, 0), nil
		}),
		mk("2", "S in D_T", "ε-superlinearizable", true, func() (bool, error) {
			out, err := regRun("timed", register.Factory(register.NewS, pS), nil, false, 0)
			if err != nil {
				return false, err
			}
			return superCheck(out, eps), nil
		}),
		mk("3", "S^c in D_C (max-skew clocks)", "linearizable", true, func() (bool, error) {
			out, err := regRun("clock", register.Factory(register.NewS, pS), clock.SpreadFactory(eps), false, 0)
			if err != nil {
				return false, err
			}
			return linCheck(out, 0), nil
		}),
		mk("4", "baseline [10] in D_C", "linearizable", true, func() (bool, error) {
			out, err := regRun("clock", register.BaselineFactory(2*eps, bounds.Hi), clock.SpreadFactory(eps), false, 0)
			if err != nil {
				return false, err
			}
			return linCheck(out, 0), nil
		}),
		mk("5", "S through both simulations in D_M", "linearizable", true, func() (bool, error) {
			out, err := regRun("mmt", register.Factory(register.NewS, register.Params{
				C: 200 * us, Delta: delta, D2: bounds.Hi + 2*eps + 24*50*us, Epsilon: eps,
			}), clock.DriftFactory(eps, 3), false, 50*us)
			if err != nil {
				return false, err
			}
			return linCheck(out, 0), nil
		}),
		// Mutation: L (no 2ε wait) in the clock model must violate
		// linearizability under adversarial clocks for some seed. The seed
		// sweep fans out fully and the verdicts reduce to "any violated".
		func() e9Row {
			r := e9Row{row: "6", system: "mutation: L (no 2ε wait) in D_C", property: "linearizable", expect: false}
			type verdict struct {
				violated bool
				err      string
			}
			verdicts := parmap(8, func(i int) verdict {
				out, err := run(runSpec{
					model:   "clock",
					factory: register.Factory(register.NewL, register.Params{C: 0, Delta: 5 * us, D2: 400*us + 2*ms, Epsilon: 0}),
					n:       3, bounds: simtime.NewInterval(200*us, 400*us), seed: int64(i),
					clocks: clock.SpreadFactory(1 * ms), delays: channel.UniformDelay,
					ops: 60, think: simtime.NewInterval(0, 700*us), writeRatio: 0.3,
				})
				if err != nil {
					return verdict{err: err.Error()}
				}
				return verdict{violated: !linCheck(out, 0)}
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
		// S without the receive buffer stays linearizable: its updates fire
		// at absolute clock times, so early delivery is harmless — the
		// buffer matters for algorithms sensitive to receive-time order.
		mk("7", "S^c in D_C without R buffer", "linearizable", true, func() (bool, error) {
			out, err := regRun("clock", register.Factory(register.NewS, pS), clock.SpreadFactory(eps), true, 0)
			if err != nil {
				return false, err
			}
			return linCheck(out, 0), nil
		}),
		// Lamport's condition probe: buffering restores it when d1 < 2ε.
		mk("8", "probe in D_C, d1<2ε, buffered", "recv clock ≥ send clock", true, func() (bool, error) {
			v, err := runCausal(100*us, eps, false)
			return v == 0, err
		}),
		mk("9", "mutation: probe, d1<2ε, no buffer", "recv clock ≥ send clock", false, func() (bool, error) {
			v, err := runCausal(100*us, eps, true)
			return v == 0, err
		}),
		mk("10", "probe, d1 = 2ε, no buffer (§7.2)", "recv clock ≥ send clock", true, func() (bool, error) {
			v, err := runCausal(2*eps, eps, true)
			return v == 0, err
		}),
	}
	rows := parmapSlice(tasks, func(fn func() e9Row) e9Row { return fn() })

	tb := stats.NewTable("row", "system", "property", "expected", "observed", "ok")
	var fails []string
	for _, r := range rows {
		fails = append(fails, r.errs...)
		if r.skip {
			continue
		}
		exp, obs := "holds", "holds"
		if !r.expect {
			exp = "violated"
		}
		if !r.observed {
			obs = "violated"
		}
		ok := r.expect == r.observed
		tb.AddRow(r.row, r.system, r.property, exp, obs, checkMark(ok))
		if !ok {
			fails = append(fails, fmt.Sprintf("%s (%s): expected %s, observed %s", r.row, r.system, exp, obs))
		}
	}
	return Result{ID: "E9", Title: "verification matrix with mutations", Output: tb.String(), Failures: fails}
}

// e10CellOps is every client's operation count in an E10 cell, e10StreamOps
// in the long-horizon streamed row (3 clients: 10 002 operations).
const e10CellOps, e10StreamOps = 40, 3334

// e10Cell is one (model, n, shards) execution of E10.
type e10Cell struct {
	model     string
	n, shards int
	out       runOut
	err       error
}

// E10Events regenerates Figure 5: what one operation of algorithm S
// costs the executor in events, by model and size. Every cell runs the
// same closed-loop workload for a fixed operation count, so the table is a
// function of the seed. At n = 8 each model runs again on the 4-shard
// executor, which must engage and reproduce the sequential run: every
// event on timed and clock, the operations and visible events on MMT
// (whose hidden TICK/step elision follows lane scheduling, so its total is
// not printed). The last row is one long-horizon run whose online verdict
// and batch verdict over the retained history streamParity requires to be
// equal, States included. What an event costs in CPU is the
// benchmark's to measure (bench/, workload sim_models).
func E10Events() Result {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 200 * us
	const mmtEll = 100 * us
	p := register.Params{C: 200 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + 24*mmtEll, Epsilon: eps}
	models := []string{"timed", "clock", "mmt"}
	var cells []e10Cell
	for _, n := range []int{2, 4, 8} {
		for _, model := range models {
			cells = append(cells, e10Cell{model: model, n: n})
		}
	}
	for _, model := range models {
		cells = append(cells, e10Cell{model: model, n: 8, shards: 4})
	}
	cells = parmapSlice(cells, func(c e10Cell) e10Cell {
		spec := runSpec{
			model: c.model, factory: register.Factory(register.NewS, p),
			n: c.n, bounds: bounds, seed: 1100, clocks: clock.DriftFactory(eps, 7), shards: c.shards,
			ops: e10CellOps, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.4,
		}
		if c.model == "mmt" {
			spec.ell = mmtEll
		}
		c.out, c.err = run(spec)
		return c
	})

	tb := stats.NewTable("model", "n", "executor", "ops", "events", "visible", "events/op")
	var fails []string
	seq := map[string]e10Cell{} // the sequential n = 8 cell of each model
	for _, c := range cells {
		name := fmt.Sprintf("%s n=%d shards=%d", c.model, c.n, c.shards)
		if c.err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", name, c.err))
			continue
		}
		sys := c.out.net.Sys
		tr := sys.Trace()
		ops, visible := len(c.out.ops), len(tr.Visible())
		executor, events, perOp := "sequential", fmt.Sprint(len(tr)), fmt.Sprintf("%.1f", float64(len(tr))/float64(ops))
		if c.shards > 1 {
			executor = fmt.Sprintf("%d shards", c.shards)
			if c.model == "mmt" {
				events, perOp = "—", "—"
			}
			if !sys.Sharded() {
				// A silent fallback would print sequential numbers under a
				// sharded label.
				fails = append(fails, fmt.Sprintf("%s: sharded execution did not engage (%s)", name, sys.ShardFallbackReason()))
			} else if ref, ok := seq[c.model]; ok { // absent: that cell's own failure is recorded
				refTr := ref.out.net.Sys.Trace()
				if ops != len(ref.out.ops) || visible != len(refTr.Visible()) {
					fails = append(fails, fmt.Sprintf("%s: %d ops / %d visible events, sequential %d / %d",
						name, ops, visible, len(ref.out.ops), len(refTr.Visible())))
				} else if c.model != "mmt" && trace.HashTrace(tr) != trace.HashTrace(refTr) {
					fails = append(fails, fmt.Sprintf("%s: trace of %d events differs from sequential's of %d", name, len(tr), len(refTr)))
				}
			}
		} else if c.n == 8 {
			seq[c.model] = c
		}
		tb.AddRow(c.model, fmt.Sprint(c.n), executor, fmt.Sprint(ops), events, fmt.Sprint(visible), perOp)
	}

	// The streamed row: algorithm L in the timed model, monitor attached and
	// trace retained.
	out, err := run(runSpec{
		model:   "timed",
		factory: register.Factory(register.NewL, register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi}),
		n:       3, bounds: bounds, seed: 4242,
		ops: e10StreamOps, think: simtime.NewInterval(0, 1*ms), writeRatio: 0.4,
		stream: []streamCheck{{name: "lin", opt: linearize.Options{
			Initial: register.Initial.String(), AssumeUnique: true, MaxStates: 1 << 30}}},
	})
	res := Result{ID: "E10", Title: "events and operations by model and size (fixed operation count)"}
	if err != nil {
		res.Failures = append(fails, fmt.Sprintf("streamed run: %v", err))
		return res
	}
	parity := streamParity(out)
	v := out.mon.Verdict("lin")
	if !v.OK {
		parity = append(parity, fmt.Sprintf("streamed run verdict: %s", v.Reason))
	}
	st := stats.NewTable("pipeline", "ops", "events", "lin.", "states", "streaming = sharded = retained")
	st.AddRow("L in D_T, n=3", fmt.Sprint(len(out.ops)), fmt.Sprint(len(out.net.Sys.Trace())),
		checkMark(v.OK), fmt.Sprint(v.States), checkMark(len(parity) == 0))
	res.Output, res.Failures = tb.String()+"\n"+st.String(), append(fails, parity...)
	return res
}
