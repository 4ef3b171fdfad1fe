package experiments

import (
	"fmt"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// This file holds the time-boxed executor throughput cell shared by E10
// and the pscbench -shardsweep scaling curve: one closed-loop register
// workload on one (model, n, shards) configuration, run for a fixed wall
// budget split into trial windows over the same warm system, reporting the
// fastest window's rates.

// CellSpec describes one throughput measurement.
type CellSpec struct {
	Model  string // "timed", "clock", or "mmt"
	N      int
	Shards int // < 2: the sequential executor
	Budget time.Duration
	Trials int
}

// CellResult is one measured cell. Err is non-empty when the run failed,
// sharding silently fell back, or no operation completed in the budget —
// the rates are meaningless then and the caller should count a failure.
type CellResult struct {
	Ops          int
	Events       int
	WallMS       float64
	OpsPerSec    float64
	EventsPerSec float64
	ShardCount   int
	Err          string
}

// ThroughputCell runs one time-boxed throughput measurement: the S
// register algorithm under a closed-loop mixed read/write workload, the
// executor advancing simulated time in slices until the wall budget is
// spent. The budget splits into Trials back-to-back windows over the same
// warm system and the fastest window is reported: interference only ever
// subtracts throughput, so max-of-N is the low-noise estimator of what the
// executor sustains.
func ThroughputCell(spec CellSpec) CellResult {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 200 * us
	p := register.Params{C: 200 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + 24*100*us, Epsilon: eps}
	ell := simtime.Duration(0)
	if spec.Model == "mmt" {
		ell = 100 * us
	}
	cfg := core.Config{
		N: spec.N, Bounds: bounds, Seed: 1100, Clocks: clock.DriftFactory(eps, 7), Ell: ell,
		Shards: spec.Shards,
	}
	var net *core.Net
	switch spec.Model {
	case "timed":
		net = core.BuildTimed(cfg, register.Factory(register.NewS, p))
	case "clock":
		net = core.BuildClocked(cfg, register.Factory(register.NewS, p))
		for _, cn := range net.Clocked {
			cn.RecordStamps = false
		}
	case "mmt":
		net = core.BuildMMT(cfg, register.Factory(register.NewS, p))
		for _, mn := range net.MMT {
			mn.RecordStamps = false
		}
	default:
		return CellResult{Err: fmt.Sprintf("unknown model %q", spec.Model)}
	}
	net.Sys.KeepTrace = false
	events := 0
	net.Sys.Watch(func(ta.Event) { events++ })
	clients := workload.Attach(net, workload.Config{
		Ops:        1 << 30, // effectively unbounded; the wall budget stops the cell
		Think:      simtime.NewInterval(0, 2*ms),
		WriteRatio: 0.4,
		Seed:       12,
	})
	countDone := func() int {
		done := 0
		for _, c := range clients {
			done += c.Done
		}
		return done
	}
	trials := spec.Trials
	if trials < 1 {
		trials = 1
	}
	// Advance simulated time in slices until the budget is spent: the wall
	// clock is only consulted between slices, so the slice width bounds how
	// far a cell can overshoot.
	const slice = simtime.Duration(50 * ms)
	horizon := simtime.Time(0)
	var res CellResult
	var totalWall time.Duration
	for trial := 0; trial < trials; trial++ {
		done0, events0 := countDone(), events
		start := time.Now()
		for time.Since(start) < spec.Budget/time.Duration(trials) {
			horizon = horizon.Add(slice)
			if err := net.Sys.Run(horizon); err != nil {
				res.Err = err.Error()
				return res
			}
		}
		wall := time.Since(start)
		totalWall += wall
		secs := wall.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		res.Ops = countDone()
		res.Events = events
		if ops := float64(res.Ops-done0) / secs; ops > res.OpsPerSec {
			res.OpsPerSec = ops
			res.EventsPerSec = float64(events-events0) / secs
		}
	}
	res.WallMS = float64(totalWall.Microseconds()) / 1000
	res.ShardCount = net.Sys.ShardCount()
	if spec.Shards > 1 && !net.Sys.Sharded() {
		res.Err = fmt.Sprintf("sharded execution did not engage (%s)", net.Sys.ShardFallbackReason())
	} else if res.Ops == 0 {
		res.Err = fmt.Sprintf("no operation completed within the %v budget", spec.Budget)
	}
	return res
}
