package experiments

import (
	"fmt"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
)

// costCells renders a row's wanted and measured worst-case latencies and
// then its checks' verdicts: the columns of E1–E3.
func costCells[K any](_ K, m measured) row {
	w := m.spec.want
	cells := []string{fmtD(w.read), fmtD(m.reads.Max), fmtD(w.write), fmtD(m.writes.Max)}
	for _, c := range m.spec.checks {
		cells = append(cells, checkMark(m.verdict[c.name].OK))
	}
	return row{cells: cells}
}

// e1AlgorithmL regenerates Table 1 (Lemma 6.1): algorithm L in D_T has
// read cost exactly c+δ and write cost exactly d'2−c, while solving
// linearizability, across the c sweep.
func e1AlgorithmL() (string, []string) {
	rows := table([]simtime.Duration{0, 500 * us, 1 * ms, 2 * ms, 3 * ms}, func(c simtime.Duration) runSpec {
		p := register.Params{C: c, Delta: 10 * us, D2: links.Hi}
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 101 + int64(c)},
			model:  "timed", factory: register.Factory(register.NewL, p), key: []string{fmtD(c)},
			ops: 40, think: think, writeRatio: 0.4,
			checks: []check{linCheck}, online: true, want: &cost{c + p.Delta, p.D2 - c, 0},
		}
	}, costCells)
	return render(rows, "c", "read want", "read meas", "write want", "write meas", "linearizable")
}

// e2AlgorithmS regenerates Table 2 (Lemma 6.2): algorithm S solves
// ε-superlinearizability in D_T with read cost 2ε+c+δ and write cost d'2−c.
func e2AlgorithmS() (string, []string) {
	rows := table([]simtime.Duration{0, 100 * us, 300 * us, 500 * us, 1 * ms}, func(eps simtime.Duration) runSpec {
		p := register.Params{C: 600 * us, Delta: 10 * us, D2: links.Hi + 2*eps, Epsilon: eps}
		return runSpec{
			Config: core.Config{N: 3, Bounds: simtime.NewInterval(links.Lo, p.D2), Seed: 202 + int64(eps)},
			model:  "timed", factory: register.Factory(register.NewS, p), key: []string{fmtD(eps)},
			ops: 30, think: think, writeRatio: 0.4,
			checks: []check{superCheck(eps), linCheck}, online: true, want: &cost{2*eps + p.C + p.Delta, p.D2 - p.C, 0},
		}
	}, costCells)
	return render(rows, "ε", "read want", "read meas", "write want", "write meas", "superlin.", "lin.")
}

// e3ClockModel regenerates Table 3 (Theorem 6.5): transformed S solves
// plain linearizability in D_C with read cost 2ε+δ+c and write cost
// d2+2ε−c (clock time; real-time measurements may deviate by ≤ 2ε).
func e3ClockModel() (string, []string) {
	knobs := grid([]simtime.Duration{100 * us, 500 * us, 1 * ms}, "perfect", "spread", "drift", "sawtooth")
	rows := table(knobs, func(k knob) runSpec {
		eps := k.d
		p := register.Params{C: 700 * us, Delta: 10 * us, D2: links.Hi + 2*eps, Epsilon: eps}
		return runSpec{
			Config: core.Config{N: 3, Bounds: links, Seed: 303 + int64(eps), Clocks: clocks(k.name, eps, 31), NewDelay: channel.UniformDelay},
			model:  "clock", factory: register.Factory(register.NewS, p), key: []string{fmtD(eps), k.name},
			ops: 30, think: think, writeRatio: 0.4,
			checks: []check{linCheck}, online: true, want: &cost{2*eps + p.Delta + p.C, p.D2 - p.C, 2 * eps},
		}
	}, costCells)
	return render(rows, "ε", "clocks", "read want", "read meas (max)", "write want", "write meas (max)", "linearizable")
}

// e4Comparison regenerates Table 4 and Figure 1 (§6.3): transformed S
// versus the [10] baseline in u = 2ε terms. The paper's translation: ours
// read c+u, write d2−c+u (combined d2+2u); baseline read 4u, write d2+3u
// (combined d2+7u). The read-cost crossover falls at c ≈ 3u−δ.
func e4Comparison() (string, []string) {
	d2, delta := links.Hi, 10*us
	type e4Knob struct{ u, c simtime.Duration }
	var knobs []e4Knob
	for _, u := range []simtime.Duration{200 * us, 400 * us, 800 * us} {
		for _, c := range []simtime.Duration{0, u, 2 * u, 3 * u, 4 * u} {
			if c <= d2 {
				knobs = append(knobs, e4Knob{u, c})
			}
		}
	}
	rows := parmapSlice(knobs, func(k e4Knob) row {
		u, c, eps := k.u, k.c, k.u/2
		spec := func(alg string, f core.AlgorithmFactory) runSpec {
			return runSpec{
				Config: core.Config{N: 3, Bounds: links, Seed: 404 + int64(u+c), Clocks: clock.SpreadFactory(eps), NewDelay: channel.UniformDelay},
				model:  "clock", factory: f, key: []string{fmtD(u), fmtD(c), alg},
				ops: 25, think: think, writeRatio: 0.4, checks: []check{linCheck},
			}
		}
		p := register.Params{C: c, Delta: delta, D2: d2 + 2*eps, Epsilon: eps}
		ours := evaluate(spec("S", register.Factory(register.NewS, p)))
		base := evaluate(spec("baseline", register.BaselineFactory(u, d2)))
		r := row{fails: append(ours.fails, base.fails...)}
		if ours.net == nil || base.net == nil {
			return r
		}
		oR, oW, bR, bW := ours.reads.Max, ours.writes.Max, base.reads.Max, base.writes.Max
		r.cells = []string{fmtD(u), fmtD(c), fmtD(oR), fmtD(bR), fmtD(oW), fmtD(bW),
			fmtD(oR + oW), fmtD(bR + bW), checkMark(ours.verdict["lin"].OK), checkMark(base.verdict["lin"].OK)}
		if u == 800*us {
			r.pts = []stats.Point{{X: c.Millis(), Y: oR.Millis()}, {X: c.Millis(), Y: bR.Millis()}}
		}
		// The paper's headline: ours wins on combined cost (d2+2u vs
		// d2+7u) whenever u > 0 — allow 2ε of real-time measurement slop
		// on each of the four latencies.
		if u > 0 && oR+oW >= bR+bW+8*eps {
			r.fails = append(r.fails, fmt.Sprintf("u=%v c=%v: combined %v not better than baseline %v", u, c, oR+oW, bR+bW))
		}
		// Crossover: for c < 3u ours reads faster; for c > 3u baseline
		// reads faster (±2ε slop each side).
		if c < 3*u-2*eps-delta && oR >= bR+4*eps {
			r.fails = append(r.fails, fmt.Sprintf("u=%v c=%v: expected ours to read faster (%v vs %v)", u, c, oR, bR))
		}
		if c > 3*u+2*eps && bR >= oR+4*eps {
			r.fails = append(r.fails, fmt.Sprintf("u=%v c=%v: expected baseline to read faster (%v vs %v)", u, c, bR, oR))
		}
		return r
	})
	tb, fails := render(rows, "u", "c", "S read", "base read", "S write", "base write", "S combined", "base combined", "S lin.", "base lin.")
	note := ""
	for i, k := range knobs {
		if k.c == 3*k.u && rows[i].cells != nil { // the note names the widest u's
			note = fmt.Sprintf("read-cost crossover at c = 3u−δ (paper: ours c+u vs baseline 4u); at u=%v both read ≈ %s\n", k.u, rows[i].cells[3])
		}
	}
	return tb + note + chart("Figure 1: worst-case read latency vs c (u = 800µs)", "c (ms)", "read latency (ms)", rows,
		stats.Series{Name: "transformed S (c+u)", Marker: 'o'}, stats.Series{Name: "baseline [10] (4u)", Marker: 'b'}), fails
}
