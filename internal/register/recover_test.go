package register_test

import (
	"fmt"
	"math/rand"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// crashable wraps LS with the failure the fleet's recovery path is built
// for: at crashAt on the node's own time the register's state is gone and
// every frame delivered before wiredAt (W) is lost; wait after W the node
// copies a peer's register (Snapshot → Restore) and is Ready. A zero
// crashAt never crashes: the twin.
type crashable struct {
	ls               *register.LS
	fresh            func() *register.LS
	peer             *crashable
	crashAt, wiredAt simtime.Time
	wait             simtime.Duration
	down             bool
}

type (
	crashKey   struct{}
	wiredKey   struct{}
	restoreKey struct{}
)

func (c *crashable) Start(ctx core.Context) {
	c.ls.Start(ctx)
	if c.crashAt > 0 {
		ctx.SetTimer(c.crashAt, crashKey{})
		ctx.SetTimer(c.wiredAt, wiredKey{})
		ctx.SetTimer(c.wiredAt.Add(c.wait), restoreKey{})
	}
}

func (c *crashable) OnInput(ctx core.Context, name string, payload any) {
	c.ls.OnInput(ctx, name, payload)
}

func (c *crashable) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	if !c.down {
		c.ls.OnMessage(ctx, from, body)
	}
}

func (c *crashable) OnTimer(ctx core.Context, key any) {
	switch key.(type) {
	case crashKey:
		c.ls, c.down = c.fresh(), true
	case wiredKey:
		c.down = false
	case restoreKey:
		c.ls.Restore(c.peer.ls.Snapshot())
	default:
		// Timers the lost register had set reach its successor: an update
		// timer only applies what is due, and the script leaves no operation
		// in flight across the crash.
		c.ls.OnTimer(ctx, key)
	}
}

const (
	recoverVictim = 2
	recoverSource = 0
)

// recoverRun is one seeded execution: nodes 0 and 1 write and read on a
// fixed schedule throughout, node 2 does so until shortly before T and from
// Ready (W + wait) on, and crash says whether the outage happens or this is
// the twin. It returns the history and the real time from which node 2's
// reads are compared.
func recoverRun(t *testing.T, build func(core.Config, core.AlgorithmFactory) *core.Net, eps simtime.Duration, seed int64, crash bool, wait simtime.Duration) ([]linearize.Op, simtime.Time) {
	t.Helper()
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := stdParams(eps, bounds, 700*us)
	rng := rand.New(rand.NewSource(seed))
	crashAt := simtime.Time(40*ms + simtime.Duration(rng.Int63n(int64(5*ms))))
	wiredAt := crashAt.Add(8*ms + simtime.Duration(rng.Int63n(int64(5*ms))))
	// Ready, padded by ε: node 2's timers run on its clock, the script on
	// real time.
	ready := wiredAt.Add(wait + eps)

	nodes := make([]*crashable, 3)
	net := build(core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: clock.DriftFactory(eps, seed)},
		func(id ta.NodeID, _ int) core.Algorithm {
			c := &crashable{fresh: func() *register.LS { return register.NewS(p) }}
			c.ls = c.fresh()
			if crash && id == recoverVictim {
				c.crashAt, c.wiredAt, c.wait = crashAt, wiredAt, wait
			}
			nodes[id] = c
			return c
		})
	nodes[recoverVictim].peer = nodes[recoverSource]

	scripts := make([][]workload.ScriptOp, 3)
	for i := range scripts {
		writes := 0.7
		if i == recoverVictim {
			writes = 0.2
		}
		all := workload.MakeScript(24, simtime.Time(simtime.Duration(i)*700*us), 5*ms, writes, seed*7+int64(i))
		for _, op := range all {
			// Quiet at the victim from well before the crash (no operation
			// in flight at T) until Ready; in the twin too, so both runs
			// see the same invocations.
			if i != recoverVictim || op.At.Before(crashAt.Add(-7*ms)) {
				scripts[i] = append(scripts[i], op)
			}
		}
	}
	// At the victim from the first instant after Ready, when an update
	// missing from the copy has not yet been overwritten: two reads, then
	// reads and a few writes.
	post := []workload.ScriptOp{{At: ready}, {At: ready.Add(2500 * us)}}
	for k := 1; k <= 8; k++ {
		post = append(post, workload.ScriptOp{At: ready.Add(simtime.Duration(k) * 5 * ms), Write: k%3 == 0})
	}
	scripts[recoverVictim] = append(scripts[recoverVictim], post...)

	clients := workload.AttachScripted(net, scripts)
	if _, err := net.Sys.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if c.Err != nil || c.Done != len(scripts[i]) {
			t.Fatalf("seed %d: %s completed %d/%d ops, err %v", seed, c.Name(), c.Done, len(scripts[i]), c.Err)
		}
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		t.Fatal(err)
	}
	return ops, ready
}

// victimReads lists what node 2's reads invoked at or after from returned.
func victimReads(ops []linearize.Op, from simtime.Time) []string {
	var out []string
	for _, o := range ops {
		if o.Node == recoverVictim && o.Kind == linearize.Read && !o.Inv.Before(from) {
			out = append(out, fmt.Sprintf("%v=%s", o.Inv, o.Value))
		}
	}
	return out
}

// TestRecoverBySnapshotBound pins the state-transfer bound from both sides,
// in the timed model (ε = 0) and the clock model: a register that lost its
// state at T and hears its peers again from W serves, from a peer's copy
// taken W + d2 + 2ε on its own clock, exactly what a twin that never
// crashed serves, and the history is linearizable — on every seed; with the
// copy taken at W itself, some seed's read differs or the history fails.
func TestRecoverBySnapshotBound(t *testing.T) {
	models := []struct {
		name  string
		build func(core.Config, core.AlgorithmFactory) *core.Net
		eps   simtime.Duration
	}{
		{"timed", core.BuildTimed, 0},
		{"clocked", core.BuildClocked, 500 * us},
	}
	const seeds = 200
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			early := 0
			bound := 3*ms + 2*m.eps // d2 + 2ε
			for seed := int64(1); seed <= seeds; seed++ {
				differs := func(wait simtime.Duration) string {
					twin, from := recoverRun(t, m.build, m.eps, seed, false, wait)
					ops, _ := recoverRun(t, m.build, m.eps, seed, true, wait)
					if got, want := fmt.Sprint(victimReads(ops, from)), fmt.Sprint(victimReads(twin, from)); got != want {
						return fmt.Sprintf("reads after Ready\n got %s\nwant %s (the twin's)", got, want)
					}
					if r := linearize.CheckLinearizable(ops, register.Initial.String()); !r.OK {
						return "history with a recovery is not linearizable: " + r.Reason
					}
					return ""
				}
				if why := differs(bound); why != "" {
					t.Fatalf("seed %d: %s", seed, why)
				}
				if differs(0) != "" {
					early++
				}
			}
			if early == 0 {
				t.Fatalf("a copy taken at W itself passed on all %d seeds: the d2+2ε wait is not pinned from below", seeds)
			}
			t.Logf("copy at W+d2+2ε: %d of %d seeds equal the twin; copy at W: %d seeds differ", seeds, seeds, early)
		})
	}
}
