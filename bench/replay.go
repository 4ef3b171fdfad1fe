package main

import (
	"fmt"
	"runtime"
	"time"

	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// check_replay: the verifier alone. Set-up captures, from the seed, the
// checker command stream of an 8-register algorithm-L run in the timed
// model (8 disjoint groups of 3 nodes, ≈ 60 k operations); the window
// replays that one stream round-robin through the exact sequential, the
// exact 2-shard and the ε-approximate checker, each replay between
// calibration spins.
const (
	replayRegisters = 8
	replayGroup     = 3 // nodes serving each register
	replayOps       = 60_000
	replayApproxEps = 3 * simtime.Millisecond
)

// replayVariants lists the checkers in replay order.
var replayVariants = []struct {
	name      string
	shards    int
	approxEps simtime.Duration
}{
	{"exact", 0, 0},
	{"shard2", 2, 0},
	{"approx", 0, replayApproxEps},
}

// captureHistory runs the capture workload and returns the command stream
// its Monitor produced.
func captureHistory(seed int64) ([]linearize.Cmd, error) {
	n := replayRegisters * replayGroup
	perClient := (replayOps + n - 1) / n
	bounds := simtime.NewInterval(1*simtime.Millisecond, 3*simtime.Millisecond)
	p := register.Params{C: 500 * simtime.Microsecond, Delta: 10 * simtime.Microsecond, D2: bounds.Hi}
	net := core.BuildTimed(core.Config{
		N: n, Bounds: bounds, Seed: seed*1000 + 242, Shards: -1,
		// Complete within a group, disconnected across groups:
		// independent registers.
		Topology: func(from, to int) bool { return from/replayGroup == to/replayGroup },
	}, register.Factory(register.NewL, p))
	net.Sys.KeepTrace = false
	rec := &linearize.Recorder{}
	mon := register.NewMonitor()
	mon.SetKeyFunc(func(node ta.NodeID) string { return fmt.Sprintf("r%d", int(node)/replayGroup) })
	mon.AddChecker("capture", rec)
	net.Sys.AddSink(mon)
	clients := workload.Attach(net, workload.Config{
		Ops:        perClient,
		Think:      simtime.NewInterval(0, 1*simtime.Millisecond),
		WriteRatio: 0.4,
		Seed:       seed*1000 + 77,
		Stagger:    300 * simtime.Microsecond,
	})
	done := func() int {
		d := 0
		for _, c := range clients {
			d += c.Done
		}
		return d
	}
	// Run in 50 ms slices: each Run ends with a Flush, which is where the
	// stream's Advance watermarks come from.
	const slice = 50 * simtime.Millisecond
	horizon := simtime.Time(simtime.Duration(perClient)*5*simtime.Millisecond + simtime.Second)
	for net.Sys.Now() < horizon && done() < n*perClient {
		if err := net.Sys.Run(net.Sys.Now().Add(slice)); err != nil {
			return nil, err
		}
	}
	if _, err := net.Sys.RunQuiet(net.Sys.Now().Add(slice)); err != nil {
		return nil, err
	}
	if err := mon.Err(); err != nil {
		return nil, err
	}
	if d := done(); d != n*perClient {
		return nil, fmt.Errorf("capture: %d of %d ops completed within the horizon", d, n*perClient)
	}
	mon.Finish()
	return rec.Cmds, nil
}

// replayOnce replays cmds through one variant.
func replayOnce(cmds []linearize.Cmd, shards int, approxEps simtime.Duration) linearize.Result {
	return linearize.Replay(cmds, linearize.NewSharded(linearize.ShardedOptions{
		Check: linearize.Options{
			Initial:      register.Initial.String(),
			AssumeUnique: true,
			MaxStates:    1 << 30,
			ApproxEps:    approxEps,
		},
		Shards: shards,
	}))
}

// checkReplays applies the output checks to one round of results: every
// verdict OK, and the exact search identical whatever the shard count.
func checkReplays(r *result, res [3]linearize.Result) {
	for i, v := range replayVariants {
		r.check(res[i].OK, "%s: verdict %s: %s", v.name, res[i].Verdict(), res[i].Reason)
	}
	r.check(res[0].States == res[1].States, "exact states differ: sequential %d, 2-shard %d", res[0].States, res[1].States)
}

func runReplay(e *env) (*result, error) {
	tr := e.tr
	r := newResult()
	setup := tr.start(e.root, "setup")
	s := tr.start(setup, "capture")
	cmds, err := captureHistory(e.seed)
	tr.finish(s)
	if err != nil {
		return nil, err
	}
	ops := 0
	for i := range cmds {
		if c := &cmds[i]; c.Kind == linearize.CmdAdd && c.Op.Res != simtime.Never {
			ops++
		}
	}

	// Fixed-work warm-up: one untimed replay through each variant.
	var res [3]linearize.Result
	s = tr.start(setup, "warmup")
	for i, v := range replayVariants {
		res[i] = replayOnce(cmds, v.shards, v.approxEps)
	}
	tr.finish(s)
	checkReplays(r, res)
	r.set("linearize.exact_states", float64(res[0].States))
	r.set("linearize.approx_states", float64(res[2].States))
	r.set("linearize.approx_pruned", float64(res[2].Pruned))
	r.set("bench.setup_busy_s", time.Since(processStart).Seconds())
	e.spinUntil(processStart.Add(e.workload.box))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.finish(setup)
	r.set("setup_s", time.Since(processStart).Seconds())

	window := tr.start(e.root, "window")
	var series [3]calSeries
	replays := 0
	for deadline := time.Now().Add(e.window); time.Now().Before(deadline); {
		for i, v := range replayVariants {
			took := e.slice(func() {
				s := tr.start(window, "linearize.Replay:"+v.name)
				res[i] = replayOnce(cmds, v.shards, v.approxEps)
				tr.finish(s)
			})
			series[i].add(took, ops)
			replays++
		}
		checkReplays(r, res)
		if len(r.problems) > 0 {
			break
		}
	}
	tr.finish(window)
	runtime.ReadMemStats(&ms1)

	r.attempted = ops * replays
	for i, v := range replayVariants {
		r.set("linearize."+v.name+"_cal_ns_per_op", series[i].calNS())
	}
	if r.attempted > 0 {
		r.set("linearize.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(r.attempted))
	}
	return r, nil
}
