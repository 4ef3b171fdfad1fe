package register_test

import (
	"fmt"
	"testing"

	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// captureReplay runs an algorithm-L workload on 8 independent registers in
// the timed model (8 disjoint groups of 3 nodes, a closed-loop client per
// node, 40 % writes) and returns the checker command stream its Monitor
// produced, with the number of completed operations in it. It is the
// check_replay benchmark's capture at a size of ops.
func captureReplay(tb testing.TB, seed int64, ops int) ([]linearize.Cmd, int) {
	tb.Helper()
	const registers, group = 8, 3
	n := registers * group
	perClient := (ops + n - 1) / n
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: bounds.Hi}
	net := core.BuildTimed(core.Config{
		N: n, Bounds: bounds, Seed: seed*1000 + 242, Shards: -1,
		Topology: func(from, to int) bool { return from/group == to/group },
	}, register.Factory(register.NewL, p))
	net.Sys.KeepTrace = false
	rec := &linearize.Recorder{}
	mon := register.NewMonitor()
	mon.SetKeyFunc(func(node ta.NodeID) string { return fmt.Sprintf("r%d", int(node)/group) })
	mon.AddChecker("capture", rec)
	net.Sys.AddSink(mon)
	clients := workload.Attach(net, workload.Config{
		Ops:        perClient,
		Think:      simtime.NewInterval(0, 1*ms),
		WriteRatio: 0.4,
		Seed:       seed*1000 + 77,
		Stagger:    300 * us,
	})
	done := func() int {
		d := 0
		for _, c := range clients {
			d += c.Done
		}
		return d
	}
	// 50 ms slices: each Run ends with a Flush, which is where the
	// stream's Advance watermarks come from.
	const slice = 50 * ms
	horizon := simtime.Time(simtime.Duration(perClient)*5*ms + simtime.Second)
	for net.Sys.Now() < horizon && done() < n*perClient {
		if err := net.Sys.Run(net.Sys.Now().Add(slice)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := net.Sys.RunQuiet(net.Sys.Now().Add(slice)); err != nil {
		tb.Fatal(err)
	}
	if err := mon.Err(); err != nil {
		tb.Fatal(err)
	}
	if d := done(); d != n*perClient {
		tb.Fatalf("capture: %d of %d ops completed within the horizon", d, n*perClient)
	}
	mon.Finish()
	completed := 0
	for i := range rec.Cmds {
		if c := &rec.Cmds[i]; c.Kind == linearize.CmdAdd && c.Op.Res != simtime.Never {
			completed++
		}
	}
	return rec.Cmds, completed
}

// replayChecker replays cmds through the keyed checker with the
// check_replay benchmark's options: exact when approxEps is 0.
func replayChecker(cmds []linearize.Cmd, approxEps simtime.Duration) linearize.Result {
	return linearize.Replay(cmds, linearize.NewSharded(linearize.ShardedOptions{
		Check: linearize.Options{
			Initial:      register.Initial.String(),
			AssumeUnique: true,
			MaxStates:    1 << 30,
			ApproxEps:    approxEps,
		},
	}))
}

// TestReplaySearchPinned pins the checker's search, not only its verdict,
// on a real capture: the exact and the ε = 3 ms replays of a seeded
// 8-register algorithm-L history must explore exactly the recorded number
// of states and prune exactly the recorded number of orderings. A change
// that makes the checker faster must leave these figures where they are.
func TestReplaySearchPinned(t *testing.T) {
	cmds, ops := captureReplay(t, 1, 6000)
	if ops != 6000 {
		t.Fatalf("capture completed %d ops, want 6000", ops)
	}
	for _, c := range []struct {
		name           string
		eps            simtime.Duration
		states, pruned int
	}{
		{"exact", 0, 24231, 0},
		{"approx", 3 * ms, 4566, 5517},
	} {
		r := replayChecker(cmds, c.eps)
		if !r.OK || r.States != c.states || r.Pruned != c.pruned {
			t.Errorf("%s replay: OK=%v states=%d pruned=%d (%s), want OK states=%d pruned=%d",
				c.name, r.OK, r.States, r.Pruned, r.Reason, c.states, c.pruned)
		}
	}
}

// TestReplayAllocs guards the checker's allocations per history op on the
// seed-1 capture: the exact search keeps its per-stage keys in reused
// arenas and its early sets in slabs (8.87 allocations per op before), and
// the ε = 3 ms checker allocates less still. Allocation counts do not
// depend on the host, so this holds the gain without timing anything.
func TestReplayAllocs(t *testing.T) {
	cmds, ops := captureReplay(t, 1, 6000)
	for _, c := range []struct {
		name  string
		eps   simtime.Duration
		limit float64
	}{
		{"exact", 0, 0.25},
		{"approx", 3 * ms, 0.10},
	} {
		perOp := testing.AllocsPerRun(3, func() { replaySink = replayChecker(cmds, c.eps) }) / float64(ops)
		t.Logf("%s replay: %.3f allocations per history op", c.name, perOp)
		if perOp > c.limit {
			t.Errorf("%s replay: %.3f allocations per history op, want ≤ %.2f", c.name, perOp, c.limit)
		}
	}
}

var replaySink linearize.Result

// benchReplay replays the seed-1 capture through one checker per iteration
// and reports the cost per history operation and the states explored.
func benchReplay(b *testing.B, approxEps simtime.Duration) {
	cmds, ops := captureReplay(b, 1, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySink = replayChecker(cmds, approxEps)
	}
	b.StopTimer()
	if !replaySink.OK {
		b.Fatalf("replay rejected the capture: %s", replaySink.Reason)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/histop")
	b.ReportMetric(float64(replaySink.States)/float64(ops), "states/histop")
}

// BenchmarkCheckReplayExact measures the exact keyed checker on the
// captured history: go test -run '^$' -bench CheckReplay ./internal/register/
func BenchmarkCheckReplayExact(b *testing.B) { benchReplay(b, 0) }

// BenchmarkCheckReplayApprox measures the ε = 3 ms approximate checker on
// the same history.
func BenchmarkCheckReplayApprox(b *testing.B) { benchReplay(b, 3*ms) }

// BenchmarkCheckBatch batch-checks one register's history from the seed-1
// capture at two sizes and reports the cost per history operation. The
// batch path settles the whole history as one drain, so a cost per stage
// that grew with the open window would make the larger size cost more per
// op: go test -run '^$' -bench CheckBatch ./internal/register/
func BenchmarkCheckBatch(b *testing.B) {
	for _, n := range []int{3000, 12000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			// 8 registers of 3 closed-loop clients each: one register
			// completes an eighth of the capture's ops.
			cmds, _ := captureReplay(b, 1, 8*n)
			var ops []linearize.Op
			for _, c := range cmds {
				if c.Kind == linearize.CmdAdd && c.Key == "r0" {
					ops = append(ops, c.Op)
				}
			}
			if len(ops) != n {
				b.Fatalf("register r0 completed %d ops, want %d", len(ops), n)
			}
			opt := linearize.Options{Initial: register.Initial.String(), MaxStates: 1 << 30}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replaySink = linearize.Check(ops, opt)
			}
			b.StopTimer()
			if !replaySink.OK {
				b.Fatalf("batch check rejected register r0: %s", replaySink.Reason)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/histop")
		})
	}
}
