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

// e9Matrix regenerates Table 7: the verification matrix, including
// mutation rows that must fail — showing both that the system-under-test
// satisfies the paper's claims and that the checkers would catch
// violations.
func e9Matrix() (string, []string) {
	eps := 800 * us
	spec := func(model string, f core.AlgorithmFactory, cf clock.Factory) runSpec {
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 1001, Clocks: cf, NewDelay: channel.UniformDelay},
			model:  model, factory: f,
			ops: 25, think: simtime.NewInterval(0, 1500*us), writeRatio: 0.4,
		}
	}
	pL := register.Params{C: 200 * us, Delta: 10 * us, D2: links.Hi}
	pS := register.Params{C: 200 * us, Delta: 10 * us, D2: links.Hi + 2*eps, Epsilon: eps}
	sc := spec("clock", register.Factory(register.NewS, pS), clock.SpreadFactory(eps))
	baseline := spec("clock", register.BaselineFactory(2*eps, links.Hi), clock.SpreadFactory(eps))
	pM := pS
	pM.D2 += 24 * 50 * us
	mmt := spec("mmt", register.Factory(register.NewS, pM), clock.DriftFactory(eps, 3))
	mmt.Ell = 50 * us
	unbuffered := sc
	unbuffered.DisableRecvBuffer = true
	// The mutation L (no 2ε wait) in the clock model, on one seed.
	mutantL := func(seed int64) runSpec {
		return runSpec{
			Config: core.Config{N: 3, Bounds: simtime.NewInterval(200*us, 400*us), Seed: seed,
				Clocks: clock.SpreadFactory(1 * ms), NewDelay: channel.UniformDelay},
			model: "clock", factory: register.Factory(register.NewL, register.Params{C: 0, Delta: 5 * us, D2: 400*us + 2*ms}),
			ops: 60, think: simtime.NewInterval(0, 700*us), writeRatio: 0.3,
		}
	}
	probe := func(d1 simtime.Duration, noBuffer bool) func() (bool, error) {
		return func() (bool, error) {
			v, err := runCausal(d1, eps, noBuffer)
			return v == 0, err
		}
	}
	const lin, lamport = "linearizable", "recv clock ≥ send clock"
	return matrix("holds", []claim{
		{[]string{"1", "L in D_T", lin}, true, passes(spec("timed", register.Factory(register.NewL, pL), nil), linCheck)},
		{[]string{"2", "S in D_T", "ε-superlinearizable"}, true, passes(spec("timed", register.Factory(register.NewS, pS), nil), superCheck(eps))},
		{[]string{"3", "S^c in D_C (max-skew clocks)", lin}, true, passes(sc, linCheck)},
		{[]string{"4", "baseline [10] in D_C", lin}, true, passes(baseline, linCheck)},
		{[]string{"5", "S through both simulations in D_M", lin}, true, passes(mmt, linCheck)},
		// The mutation must violate linearizability under adversarial
		// clocks on some seed.
		{[]string{"6", "mutation: L (no 2ε wait) in D_C", lin}, false, func() (bool, error) {
			return onEverySeed(0, func(seed int64) (bool, error) { return passes(mutantL(seed), linCheck)() })
		}},
		// S without the receive buffer stays linearizable: its updates fire
		// at absolute clock times, so early delivery is harmless — the
		// buffer matters for algorithms sensitive to receive-time order.
		{[]string{"7", "S^c in D_C without R buffer", lin}, true, passes(unbuffered, linCheck)},
		// Lamport's condition probe: buffering restores it when d1 < 2ε.
		{[]string{"8", "probe in D_C, d1<2ε, buffered", lamport}, true, probe(100*us, false)},
		{[]string{"9", "mutation: probe, d1<2ε, no buffer", lamport}, false, probe(100*us, true)},
		{[]string{"10", "probe, d1 = 2ε, no buffer (§7.2)", lamport}, true, probe(2*eps, true)},
	}, "row", "system", "property")
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

// e10Events regenerates Figure 5: what one operation of algorithm S
// costs the executor in events, by model and size. Every cell runs the
// same closed-loop workload for a fixed operation count, so the table is a
// function of the seed. At n = 8 each model runs again on the 4-shard
// executor, which must engage and reproduce the sequential run: every
// event on timed and clock, the operations and visible events on MMT
// (whose hidden TICK/step elision follows lane scheduling, so its total is
// not printed). The last row is one long-horizon run whose online verdict
// and batch verdict over the retained history evaluate requires to be
// equal, States included. What an event costs in CPU is the
// benchmark's to measure (bench/, workload sim_models).
func e10Events() (string, []string) {
	eps := 200 * us
	const mmtEll = 100 * us
	p := register.Params{C: 200 * us, Delta: 10 * us, D2: links.Hi + 2*eps + 24*mmtEll, Epsilon: eps}
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
			Config: core.Config{N: c.n, Bounds: links, Seed: 1100, Clocks: clock.DriftFactory(eps, 7), Shards: c.shards},
			model:  c.model, factory: register.Factory(register.NewS, p),
			ops: e10CellOps, think: think, writeRatio: 0.4,
		}
		if c.model == "mmt" {
			spec.Ell = mmtEll
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
	rows := table([]string{"L in D_T, n=3"}, func(name string) runSpec {
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 4242}, model: "timed",
			factory: register.Factory(register.NewL, register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi}),
			key:     []string{name}, ops: e10StreamOps, think: simtime.NewInterval(0, 1*ms), writeRatio: 0.4,
			checks: []check{{name: "lin", opt: linearize.Options{
				Initial: register.Initial.String(), AssumeUnique: true, MaxStates: 1 << 30}}}, online: true,
		}
	}, func(_ string, m measured) row {
		v := m.verdict["lin"]
		return row{cells: []string{fmt.Sprint(len(m.ops)), fmt.Sprint(len(m.net.Sys.Trace())),
			checkMark(v.OK), fmt.Sprint(v.States), checkMark(len(m.fails) == 0)}}
	})
	st, stFails := render(rows, "pipeline", "ops", "events", "lin.", "states", "streaming = sharded = retained")
	return tb.String() + "\n" + st, append(fails, stFails...)
}
