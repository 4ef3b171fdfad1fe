package register_test

import (
	"fmt"
	"testing"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// runWorkload drives the net with one closed-loop client per node until all
// ops complete, returning the extracted history.
func runWorkload(t *testing.T, net *core.Net, w workload.Config, horizon simtime.Time) []linearize.Op {
	t.Helper()
	clients := workload.Attach(net, w)
	quiet, err := net.Sys.RunQuiet(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !quiet {
		// MMT systems never go quiescent (steps recur); just check clients.
		if err := net.Sys.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		if c.Done != w.Ops {
			t.Fatalf("%s completed %d/%d ops", c.Name(), c.Done, w.Ops)
		}
	}
	if err := net.Sys.Trace().CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func stdParams(eps simtime.Duration, bounds simtime.Interval, c simtime.Duration) register.Params {
	return register.Params{
		C:       c,
		Delta:   10 * us,
		D2:      bounds.Hi + 2*eps, // d'2 of Theorem 4.7
		Epsilon: eps,
	}
}

func TestParamsValidate(t *testing.T) {
	good := register.Params{C: ms, Delta: us, D2: 5 * ms, Epsilon: ms}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []register.Params{
		{C: -1, Delta: us, D2: 5 * ms},
		{C: 0, Delta: 0, D2: 5 * ms},
		{C: 0, Delta: us, D2: 0},
		{C: 4 * ms, Delta: us, D2: 5 * ms, Epsilon: ms}, // c > d'2−2ε
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestValueString(t *testing.T) {
	if register.Initial.String() != "v0" {
		t.Errorf("register.Initial = %q", register.Initial)
	}
	v := register.Value{Writer: 2, Seq: 5}
	if v.String() != "n2.5" {
		t.Errorf("register.Value = %q", v)
	}
}

// --- Lemma 6.1: algorithm L in the timed model ---

func TestAlgLTimedModelExactCosts(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi, Epsilon: 0}
	cfg := core.Config{N: 3, Bounds: bounds, Seed: 11}
	net := core.BuildTimed(cfg, register.Factory(register.NewL, p))
	ops := runWorkload(t, net, workload.Config{
		Ops:        40,
		Think:      simtime.NewInterval(0, 2*ms),
		WriteRatio: 0.4,
		Seed:       1,
		Stagger:    300 * us,
	}, simtime.Time(5*simtime.Second))

	if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
		t.Fatalf("L not linearizable in D_T: %s", r.Reason)
	}
	wantRead, wantWrite := p.C+p.Delta, p.D2-p.C
	reads, writes := register.Latencies(ops)
	for _, d := range reads {
		if d != wantRead {
			t.Fatalf("read latency %v, want exactly %v (Lemma 6.1)", d, wantRead)
		}
	}
	for _, d := range writes {
		if d != wantWrite {
			t.Fatalf("write latency %v, want exactly %v (Lemma 6.1)", d, wantWrite)
		}
	}
	if len(reads) == 0 || len(writes) == 0 {
		t.Fatal("workload produced no reads or no writes")
	}
}

// --- Lemma 6.2: algorithm S solves ε-superlinearizability in D_T ---

func TestAlgSTimedModelSuper(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 400 * us
	p := stdParams(eps, bounds, 600*us)
	cfg := core.Config{N: 3, Bounds: bounds, Seed: 5}
	net := core.BuildTimed(cfg, register.Factory(register.NewS, p))
	ops := runWorkload(t, net, workload.Config{
		Ops:        30,
		Think:      simtime.NewInterval(0, 2*ms),
		WriteRatio: 0.4,
		Seed:       2,
		Stagger:    500 * us,
	}, simtime.Time(5*simtime.Second))

	if r := linearize.CheckSuperLinearizable(ops, register.Initial.String(), eps); !r.OK {
		t.Fatalf("S not ε-superlinearizable in D_T: %s", r.Reason)
	}
	wantRead, wantWrite := 2*eps+p.C+p.Delta, p.D2-p.C
	reads, writes := register.Latencies(ops)
	for _, d := range reads {
		if d != wantRead {
			t.Fatalf("read latency %v, want exactly %v (Lemma 6.2)", d, wantRead)
		}
	}
	for _, d := range writes {
		if d != wantWrite {
			t.Fatalf("write latency %v, want exactly %v", d, wantWrite)
		}
	}
}

// --- Theorem 6.5: transformed S solves plain linearizability in D_C ---

func TestAlgSClockModelLinearizable(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 500 * us
	clockFactories := map[string]clock.Factory{
		"perfect":  clock.PerfectFactory(),
		"spread":   clock.SpreadFactory(eps),
		"drift":    clock.DriftFactory(eps, 77),
		"sawtooth": clock.SawtoothFactory(eps, 6*ms),
	}
	delays := map[string]func() channel.DelayPolicy{
		"min":     channel.MinDelay,
		"max":     channel.MaxDelay,
		"uniform": channel.UniformDelay,
		"spread":  channel.SpreadDelay,
	}
	for cname, cf := range clockFactories {
		for dname, df := range delays {
			t.Run(cname+"/"+dname, func(t *testing.T) {
				p := stdParams(eps, bounds, 700*us)
				cfg := core.Config{N: 3, Bounds: bounds, Seed: 13, Clocks: cf, NewDelay: df}
				net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
				ops := runWorkload(t, net, workload.Config{
					Ops:        25,
					Think:      simtime.NewInterval(0, 2*ms),
					WriteRatio: 0.4,
					Seed:       3,
					Stagger:    400 * us,
				}, simtime.Time(5*simtime.Second))

				if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
					t.Fatalf("S^c not linearizable under %s/%s: %s", cname, dname, r.Reason)
				}
				// Theorem 6.5 costs are in clock time; real-time latencies
				// can deviate by at most 2ε (each endpoint by ε).
				wantRead, wantWrite := 2*eps+p.Delta+p.C, bounds.Hi+2*eps-p.C
				reads, writes := register.Latencies(ops)
				for _, d := range reads {
					if (d - wantRead).Abs() > 2*eps {
						t.Fatalf("read latency %v, want %v ± 2ε", d, wantRead)
					}
				}
				for _, d := range writes {
					if (d - wantWrite).Abs() > 2*eps {
						t.Fatalf("write latency %v, want %v ± 2ε", d, wantWrite)
					}
				}
			})
		}
	}
}

// --- The 2ε read wait is necessary: plain L violates linearizability in
// --- the clock model under adversarial clocks (the §6.2 motivation).

func TestAlgLClockModelViolates(t *testing.T) {
	bounds := simtime.NewInterval(200*us, 400*us)
	eps := 1 * ms // large skew relative to read duration
	p := register.Params{C: 0, Delta: 5 * us, D2: bounds.Hi + 2*eps, Epsilon: 0}
	violated := false
	for seed := int64(0); seed < 10 && !violated; seed++ {
		cfg := core.Config{
			N:      3,
			Bounds: bounds,
			Seed:   seed,
			Clocks: clock.SpreadFactory(eps),
		}
		net := core.BuildClocked(cfg, register.Factory(register.NewL, p))
		ops := runWorkload(t, net, workload.Config{
			Ops:        60,
			Think:      simtime.NewInterval(0, 700*us),
			WriteRatio: 0.3,
			Seed:       seed * 91,
			Stagger:    100 * us,
		}, simtime.Time(10*simtime.Second))
		if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
			violated = true
		}
	}
	if !violated {
		t.Fatal("algorithm L stayed linearizable in the clock model across all seeds; the 2ε wait appears unnecessary, contradicting §6.2")
	}
}

// --- The baseline reconstruction: linearizable, with [10]'s costs ---

func TestBaselineClockModel(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 500 * us
	u := 2 * eps
	for cname, cf := range map[string]clock.Factory{
		"perfect": clock.PerfectFactory(),
		"spread":  clock.SpreadFactory(eps),
		"drift":   clock.DriftFactory(eps, 5),
	} {
		t.Run(cname, func(t *testing.T) {
			cfg := core.Config{N: 3, Bounds: bounds, Seed: 17, Clocks: cf}
			net := core.BuildClocked(cfg, register.BaselineFactory(u, bounds.Hi))
			ops := runWorkload(t, net, workload.Config{
				Ops:        25,
				Think:      simtime.NewInterval(0, 2*ms),
				WriteRatio: 0.4,
				Seed:       4,
				Stagger:    300 * us,
			}, simtime.Time(5*simtime.Second))
			if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
				t.Fatalf("baseline not linearizable under %s clocks: %s", cname, r.Reason)
			}
			reads, writes := register.Latencies(ops)
			for _, d := range reads {
				if (d - 4*u).Abs() > 2*eps {
					t.Fatalf("baseline read %v, want 4u = %v ± 2ε", d, 4*u)
				}
			}
			for _, d := range writes {
				lo, hi := bounds.Hi+u, bounds.Hi+3*u+2*eps
				if d < lo-2*eps || d > hi {
					t.Fatalf("baseline write %v outside [%v, %v]", d, lo-2*eps, hi)
				}
			}
		})
	}
}

// --- Theorem 5.2 end to end: S through both simulations in D_M ---

func TestAlgSMMTModel(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 300 * us
	ell := 50 * us
	// d'2 for the algorithm per Theorem 5.2: d2 + 2ε + kℓ; the register
	// emits at most ~n+1 outputs per op, so a generous kℓ headroom of
	// 20ℓ covers it.
	kell := 20 * ell
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + kell, Epsilon: eps}
	cfg := core.Config{
		N:      3,
		Bounds: bounds,
		Seed:   23,
		Clocks: clock.DriftFactory(eps, 9),
		Ell:    ell,
	}
	net := core.BuildMMT(cfg, register.Factory(register.NewS, p))
	ops := runWorkload(t, net, workload.Config{
		Ops:        20,
		Think:      simtime.NewInterval(0, 2*ms),
		WriteRatio: 0.4,
		Seed:       6,
		Stagger:    400 * us,
	}, simtime.Time(3*simtime.Second))

	if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
		t.Fatalf("S not linearizable in D_M: %s", r.Reason)
	}
	// Output shifts: every emitted response left the node within the
	// kℓ+2ε+3ℓ bound of Theorem 5.1 relative to its simulated clock time.
	bound := kell + 2*eps + 3*ell
	for _, n := range net.MMT {
		for _, st := range n.Stamps() {
			shift := st.Real.Sub(simtime.Time(st.SimClock)) // real − clock
			// |clock − real| ≤ ε contributes ε; queueing and steps the rest.
			if shift > simtime.Duration(bound) {
				t.Errorf("output %v shifted %v > bound %v", st.Action, shift, bound)
			}
		}
	}
}

// --- Alternation violations are rejected by register.History ---

func TestHistoryAlternationEnforced(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := register.Params{C: 0, Delta: 10 * us, D2: bounds.Hi, Epsilon: 0}
	cfg := core.Config{N: 1, Bounds: bounds, Seed: 1}
	net := core.BuildTimed(cfg, register.Factory(register.NewL, p))
	net.Invoke(0, register.ActRead, nil)
	net.Invoke(0, register.ActRead, nil) // second invocation while first outstanding
	_ = net.Sys.Run(simtime.Time(10 * ms))
	_, err := register.History(net.Sys.Trace().Visible())
	if err == nil {
		t.Fatal("alternation violation not detected")
	}
}

func TestHistoryPendingOps(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := register.Params{C: 0, Delta: 10 * us, D2: bounds.Hi, Epsilon: 0}
	cfg := core.Config{N: 1, Bounds: bounds, Seed: 1}
	net := core.BuildTimed(cfg, register.Factory(register.NewL, p))
	net.Invoke(0, register.ActWrite, register.Value{Writer: 0, Seq: 0})
	// Stop before the ack arrives.
	_ = net.Sys.Run(simtime.Time(100 * us))
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || !ops[0].Pending() {
		t.Fatalf("ops = %v, want one pending write", ops)
	}
}

// --- Cost helpers ---

func TestCosts(t *testing.T) {
	p := register.Params{C: 2 * ms, Delta: 10 * us, D2: 10 * ms, Epsilon: ms}
	rL, wL := register.NewL(p).Costs()
	if rL != p.C+p.Delta || wL != p.D2-p.C {
		t.Errorf("L costs = %v, %v", rL, wL)
	}
	rS, wS := register.NewS(p).Costs()
	if rS != 2*p.Epsilon+p.C+p.Delta || wS != p.D2-p.C {
		t.Errorf("S costs = %v, %v", rS, wS)
	}
	rB, wB := register.NewBaseline(2*ms, 10*ms).Costs()
	if rB != 8*ms || wB != 16*ms {
		t.Errorf("baseline costs = %v, %v", rB, wB)
	}
}

// Determinism across the full register stack.
func TestRegisterDeterminism(t *testing.T) {
	run := func() string {
		bounds := simtime.NewInterval(1*ms, 3*ms)
		eps := 300 * us
		p := stdParams(eps, bounds, 500*us)
		cfg := core.Config{N: 3, Bounds: bounds, Seed: 99, Clocks: clock.DriftFactory(eps, 3)}
		net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
		workload.Attach(net, workload.Config{Ops: 15, Think: simtime.NewInterval(0, ms), WriteRatio: 0.5, Seed: 8})
		if _, err := net.Sys.RunQuiet(simtime.Time(simtime.Second)); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(net.Sys.Trace().Visible().Labels())
	}
	if run() != run() {
		t.Error("non-deterministic execution")
	}
}

// TestAuditedSystems wraps every component of register systems in the
// ta.Audit contract checker and runs the full workload in each model: the
// executable face of the §2.1 axioms, checked on the real composition.
func TestAuditedSystems(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 300 * us
	ell := 50 * us
	for _, model := range []string{"timed", "clock", "mmt"} {
		model := model
		t.Run(model, func(t *testing.T) {
			d2p := bounds.Hi
			if model != "timed" {
				d2p += 2 * eps
			}
			if model == "mmt" {
				d2p += 24 * ell
			}
			p := register.Params{C: 300 * us, Delta: 10 * us, D2: d2p, Epsilon: eps}
			cfg := core.Config{N: 3, Bounds: bounds, Seed: 77, Clocks: clock.DriftFactory(eps, 5), Ell: ell}
			net, err := core.Build(model, cfg, register.Factory(register.NewS, p))
			if err != nil {
				t.Fatal(err)
			}
			var audits []*ta.Auditor
			wrap := func(a ta.Automaton) {
				au := ta.Audit(a)
				net.Sys.Replace(a.Name(), au)
				audits = append(audits, au)
			}
			for _, n := range net.Timed {
				wrap(n)
			}
			for _, n := range net.Clocked {
				wrap(n)
			}
			for _, n := range net.MMT {
				wrap(n)
			}
			for _, tk := range net.Ticks {
				wrap(tk)
			}
			for _, e := range net.Edges {
				wrap(e)
			}
			done := workload.AllDone(workload.Attach(net, workload.Config{
				Ops: 15, Think: simtime.NewInterval(0, 2*ms), WriteRatio: 0.4, Seed: 3, Stagger: 300 * us,
			}))
			if err := net.RunUntil(done, simtime.Time(20*simtime.Second)); err != nil {
				t.Fatal(err)
			}
			for _, au := range audits {
				if err := au.Err(); err != nil {
					t.Errorf("%v\nall: %v", err, au.Violations)
				}
			}
			ops, err := register.History(net.Sys.Trace().Visible())
			if err != nil {
				t.Fatal(err)
			}
			if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
				t.Fatalf("audited %s run not linearizable: %s", model, r.Reason)
			}
		})
	}
}
