package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

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

// rowOut is the common shape of one parallelized experiment row: rendered
// table cells plus any assertion failures. Experiments with extra per-row
// artifacts (chart points, metrics) wrap it in their own struct.
type rowOut struct {
	cells []string
	fails []string
}

// collectRows folds parallelized rows back into the table in index order
// and returns the concatenated failures — the sequential tail of every
// fan-out, keeping rendered output independent of completion order.
func collectRows(tb *stats.Table, rows []rowOut) []string {
	var fails []string
	for _, r := range rows {
		if r.cells != nil {
			tb.AddRow(r.cells...)
		}
		fails = append(fails, r.fails...)
	}
	return fails
}
