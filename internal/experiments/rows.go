package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"psclock/internal/simtime"
	"psclock/internal/stats"
)

// parmap evaluates fn(0..n-1) on a pool of GOMAXPROCS workers and returns
// the results in index order. Every experiment's seeded adversary ensemble
// (seeds × parameter rows) is embarrassingly parallel: each row builds its
// own System from its own seed, so rows share no state, and collecting in
// index order keeps tables and failure lists deterministic whatever the
// completion order. With one worker (GOMAXPROCS=1) or one row it
// degenerates to a plain loop. fn must be safe to call concurrently; each
// call should confine itself to its own row's state.
func parmap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// parmapSlice is parmap over an explicit row-spec slice.
func parmapSlice[S, T any](specs []S, fn func(s S) T) []T {
	return parmap(len(specs), func(i int) T { return fn(specs[i]) })
}

// row is one table row: its cells, the failures of its checks, and the
// points it adds to a figure, one per series.
type row struct {
	cells []string
	fails []string
	pts   []stats.Point
}

// table evaluates the spec of every knob on the row pool and renders each
// row as the spec's key followed by cells(knob, run). A run that does not
// complete renders only its failures.
func table[K any](knobs []K, spec func(K) runSpec, cells func(K, measured) row) []row {
	return parmapSlice(knobs, func(k K) row {
		m := evaluate(spec(k))
		if m.net == nil {
			return row{fails: m.fails}
		}
		r := cells(k, m)
		if r.cells != nil {
			r.cells = slices.Concat(m.spec.key, r.cells)
		}
		r.fails = append(m.fails, r.fails...)
		return r
	})
}

// render lays rows out under head in row order, the sequential tail of
// every fan-out, and returns the table with the rows' failures.
func render(rows []row, head ...string) (string, []string) {
	tb := stats.NewTable(head...)
	var fails []string
	for _, r := range rows {
		if r.cells != nil {
			tb.AddRow(r.cells...)
		}
		fails = append(fails, r.fails...)
	}
	return tb.String(), fails
}

// chart draws a figure whose i-th series holds every row's i-th point.
func chart(title, x, y string, rows []row, series ...stats.Series) string {
	for _, r := range rows {
		for i, p := range r.pts {
			series[i].Points = append(series[i].Points, p)
		}
	}
	return stats.Chart(title, x, y, series, 56, 10)
}

// claim is one row of an expected/observed matrix: the cells that name
// it, whether the paper says its property holds, and the run that
// observes whether it does.
type claim struct {
	cells   []string
	holds   bool
	observe func() (bool, error)
}

// matrix observes every claim on the row pool and renders each row as its
// cells, the expected and the observed verdict (yes when the property
// holds, "violated" when not) and whether they agree. A claim whose run
// fails renders only its error.
func matrix(yes string, claims []claim, head ...string) (string, []string) {
	word := func(holds bool) string {
		if holds {
			return yes
		}
		return "violated"
	}
	rows := parmapSlice(claims, func(c claim) row {
		observed, err := c.observe()
		if err != nil {
			return row{fails: []string{err.Error()}}
		}
		r := row{cells: append(slices.Clip(c.cells), word(c.holds), word(observed), checkMark(observed == c.holds))}
		if observed != c.holds {
			r.fails = []string{fmt.Sprintf("row %s (%s): expected %s, observed %s",
				c.cells[0], strings.Join(c.cells[1:], ", "), word(c.holds), word(observed))}
		}
		return r
	})
	return render(rows, append(head, "expected", "observed", "ok")...)
}

// onEverySeed observes a property on eight seeds from first, in parallel,
// and reports whether it held on every one: a mutation row expects some
// seed to violate it.
func onEverySeed(first int64, observe func(seed int64) (bool, error)) (bool, error) {
	type verdict struct {
		holds bool
		err   error
	}
	verdicts := parmap(8, func(i int) verdict {
		holds, err := observe(first + int64(i))
		return verdict{holds, err}
	})
	all, errs := true, []error{}
	for _, v := range verdicts {
		all = all && v.holds
		errs = append(errs, v.err)
	}
	return all, errors.Join(errs...)
}

// passes runs s and reports whether its history passes c.
func passes(s runSpec, c check) func() (bool, error) {
	return func() (bool, error) {
		out, err := run(s)
		if err != nil {
			return false, err
		}
		return c.batch(out.ops).OK, nil
	}
}

// knob is one row's swept duration, ε or a margin, and named adversary.
type knob struct {
	d    simtime.Duration
	name string
}

// grid crosses ds with names, duration-major.
func grid(ds []simtime.Duration, names ...string) []knob {
	var out []knob
	for _, d := range ds {
		for _, name := range names {
			out = append(out, knob{d, name})
		}
	}
	return out
}
