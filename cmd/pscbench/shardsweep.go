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

// runShardSweep measures the scaling curve, prints it as a table, and
// reports whether the sweep passed: no cell failed to run and — on boxes
// with at least sweepWinProcs cores — every model has a winning cell
// (speedup ≥ 1.0×) at procs ≥ sweepWinProcs. The shard counts and proc
// counts are fixed (2/4/8 shards × 1/2/4 procs) so tables from different
// runs compare cell-for-cell; proc counts above the box's core count are
// skipped — a cell that cannot physically run in parallel would measure
// scheduler churn, not the executor.
func runShardSweep() bool {
	procs := []int{1}
	for _, p := range []int{2, 4} {
		if p <= runtime.NumCPU() {
			procs = append(procs, p)
		}
	}
	cells, fails := experiments.ShardScaling(sweepN, []int{2, 4, 8}, procs, sweepCellBudget, sweepTrials)

	fmt.Printf("shard scaling (n=%d, %d CPU):\n", sweepN, runtime.NumCPU())
	fmt.Printf("  %-6s %7s %6s %12s %12s %9s %4s\n", "model", "shards", "procs", "ops/s", "seq ops/s", "speedup", "win")
	for _, c := range cells {
		win := ""
		if c.Win {
			win = "yes"
		}
		fmt.Printf("  %-6s %7d %6d %12.0f %12.0f %8.2fx %4s\n",
			c.Model, c.Shards, c.Procs, c.OpsPerSec, c.SeqOpsPerSec, c.SpeedupVsSeq, win)
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "pscbench: -shardsweep: cell failed: %s\n", f)
	}

	pass := len(fails) == 0
	if runtime.NumCPU() >= sweepWinProcs {
		for _, model := range []string{"timed", "clock", "mmt"} {
			won := false
			for _, c := range cells {
				if c.Model == model && c.Procs >= sweepWinProcs && c.Win {
					won = true
					break
				}
			}
			if !won {
				pass = false
				fmt.Fprintf(os.Stderr, "pscbench: -shardsweep: %s has no winning cell at procs >= %d\n", model, sweepWinProcs)
			}
		}
	}
	return pass
}
