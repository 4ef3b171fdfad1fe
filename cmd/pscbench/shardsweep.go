package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"psclock/internal/experiments"
)

// The -shardsweep measurement: the GOMAXPROCS × shards scaling curve of
// the adaptive-horizon sharded executor, printed as a table. Each cell is
// a time-boxed throughput measurement (experiments.ThroughputCell) of one
// (model, shards, procs) configuration; speedups are relative to a
// sequential baseline measured in the same sweep on the same box, so the
// ratios survive host changes that absolute ops/s numbers do not.

const (
	sweepN          = 8
	sweepCellBudget = 150 * time.Millisecond
	sweepTrials     = 3
	// sweepWinProcs is the parallelism at which the executor is required
	// to win: the success bar is "sharded beats sequential on every model
	// at GOMAXPROCS ≥ 4". Boxes with fewer cores than that cannot run the
	// winning configuration, so the gate only applies when NumCPU allows.
	sweepWinProcs = 4
)

// runShardSweep measures the scaling curve — for each model a sequential
// baseline at GOMAXPROCS = 1, then one cell per (shards, procs) — prints it
// as a table, and reports whether the sweep passed: no cell failed to run
// and, on boxes with at least sweepWinProcs cores, every model has a winning
// cell (speedup ≥ 1.0×) at procs ≥ sweepWinProcs. The shard counts and proc
// counts are fixed (2/4/8 shards × 1/2/4 procs) so tables from different
// runs compare cell-for-cell; proc counts above the box's core count are
// skipped — a cell that cannot physically run in parallel would measure
// scheduler churn, not the executor. Cells run strictly one after another,
// each timing its own wall clock. The sweep sets GOMAXPROCS for the whole
// process, which is why it is this binary's own mode and not an experiment.
func runShardSweep() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cell := func(model string, shards int) experiments.CellResult {
		return experiments.ThroughputCell(experiments.CellSpec{
			Model: model, N: sweepN, Shards: shards, Budget: sweepCellBudget, Trials: sweepTrials})
	}
	pass := true
	fmt.Printf("shard scaling (n=%d, %d CPU):\n", sweepN, runtime.NumCPU())
	fmt.Printf("  %-6s %7s %6s %12s %12s %9s %4s\n", "model", "shards", "procs", "ops/s", "seq ops/s", "speedup", "win")
	for _, model := range []string{"timed", "clock", "mmt"} {
		runtime.GOMAXPROCS(1)
		seq := cell(model, 0)
		if seq.Err != "" {
			pass = false
			fmt.Fprintf(os.Stderr, "pscbench: -shardsweep: %s sequential baseline failed: %s\n", model, seq.Err)
			continue
		}
		won := false
		for _, procs := range []int{1, 2, 4} {
			if procs > 1 && procs > runtime.NumCPU() {
				continue
			}
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{2, 4, 8} {
				c := cell(model, shards)
				if c.Err != "" {
					pass = false
					fmt.Fprintf(os.Stderr, "pscbench: -shardsweep: %s shards=%d procs=%d failed: %s\n", model, shards, procs, c.Err)
					continue
				}
				win := ""
				if c.OpsPerSec >= seq.OpsPerSec {
					win = "yes"
					won = won || procs >= sweepWinProcs
				}
				fmt.Printf("  %-6s %7d %6d %12.0f %12.0f %8.2fx %4s\n",
					model, shards, procs, c.OpsPerSec, seq.OpsPerSec, c.OpsPerSec/seq.OpsPerSec, win)
			}
		}
		if !won && runtime.NumCPU() >= sweepWinProcs {
			pass = false
			fmt.Fprintf(os.Stderr, "pscbench: -shardsweep: %s has no winning cell at procs >= %d\n", model, sweepWinProcs)
		}
	}
	return pass
}
