package experiments

import (
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/spec"
)

// e16RealTimeSpecs regenerates Table 12: the paper's headline extension
// over Lamport [5] and Neiger-Toueg [13], measured. Those works preserve
// *internal* specifications (P = P_∞) across the move to inaccurate
// clocks; Theorem 4.7 additionally preserves *real-time* specifications,
// but only as P_ε. With Responsive(read ≤ 2ε+c+δ, write ≤ d'2−c) — the
// exact latency contract Lemma 6.2 proves for S in D_T:
//
//	row 1: D_T satisfies the exact bounds (and P is P_ε with ε = 0);
//	row 2: D_C violates the exact bounds (real time ≠ clock time — a
//	       plain-P real-time spec does not survive the transformation);
//	row 3: D_C satisfies their P_ε relaxation (each endpoint moved ≤ ε:
//	       durations within bound + 2ε) — exactly what the theorem grants;
//	row 4: the internal spec (linearizability) needs no relaxation at all,
//	       which is the [5]/[13] special case.
func e16RealTimeSpecs() (string, []string) {
	eps := 800 * us
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: links.Hi + 2*eps, Epsilon: eps}
	responsive := spec.Responsive{ReadBound: 2*eps + p.C + p.Delta, WriteBound: p.D2 - p.C}

	// The two models' runs are independent seeded systems; run them side
	// by side, then check the (pure) trace predicates.
	outs := parmapSlice([]string{"timed", "clock"}, func(model string) measured {
		return evaluate(runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 1600, Clocks: clocks("sawtooth", eps, 0)},
			model:  model, factory: register.Factory(register.NewS, p),
			ops: 30, think: think, writeRatio: 0.4,
		})
	})
	if fails := append(outs[0].fails, outs[1].fails...); len(fails) > 0 {
		return "", fails
	}
	timed, clocked := outs[0].net.Sys.Trace().Visible(), outs[1].net.Sys.Trace().Visible()
	tb, fails := matrix("holds", []claim{
		{[]string{"1", "D_T", "Responsive (exact Lemma 6.2 bounds)"}, true,
			func() (bool, error) { ok, _ := responsive.Holds(timed); return ok, nil }},
		{[]string{"2", "D_C", "Responsive (same exact bounds, plain P)"}, false,
			func() (bool, error) { ok, _ := responsive.Holds(clocked); return ok, nil }},
		{[]string{"3", "D_C", "Responsive_ε (bounds + 2ε, per Thm 4.7)"}, true,
			func() (bool, error) { ok, _ := responsive.HoldsEps(clocked, eps); return ok, nil }},
		{[]string{"4", "D_C", "linearizability (internal spec, [5]/[13] case)"}, true,
			func() (bool, error) { ok, _ := spec.Linearizable{}.Holds(clocked); return ok, nil }},
	}, "row", "model", "specification")
	return tb + "Internal specs survive the clock model unchanged; real-time specs survive only as P_ε —\n" +
		"the distinction §4.3 draws against Lamport [5] and Neiger-Toueg [13], observed on traces.\n", fails
}
