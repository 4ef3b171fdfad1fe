package spec_test

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/spec"
	"psclock/internal/ta"
)

// slotted is time-slot mutual exclusion written against perfect time: node
// i holds the resource during slots k·σ .. (k+1)·σ − guard, k ≡ i (mod n),
// for rounds of its slots.
type slotted struct {
	sigma, guard simtime.Duration
	rounds       int
}

type slotKey struct {
	k       int
	acquire bool
}

func (s *slotted) slot(k int) simtime.Time { return simtime.Zero.Add(simtime.Duration(k) * s.sigma) }

func (s *slotted) Start(ctx core.Context) {
	k := int(ctx.ID())
	ctx.SetTimer(s.slot(k), slotKey{k: k, acquire: true})
}

func (s *slotted) OnInput(core.Context, string, any) {}

func (s *slotted) OnMessage(core.Context, ta.NodeID, any) {}

func (s *slotted) OnTimer(ctx core.Context, key any) {
	sk := key.(slotKey)
	if sk.acquire {
		ctx.Output("ACQUIRE", sk.k)
		ctx.SetTimer(s.slot(sk.k).Add(s.sigma-s.guard), slotKey{k: sk.k})
		return
	}
	ctx.Output("RELEASE", sk.k)
	if s.rounds--; s.rounds > 0 {
		next := sk.k + ctx.N()
		ctx.SetTimer(s.slot(next), slotKey{k: next, acquire: true})
	}
}

// Mutual exclusion is not closed under the P_ε perturbation, so Theorem
// 4.7 carries the slotted design onto ε-synchronized clocks only as P_ε:
// adjacent slot owners overlap in real time by up to 2ε. The second
// technique of §7.1 designs a stronger Q with Q_ε ⊆ P instead; here Q is
// the same slots with a 2ε guard before each handover, and the clock model
// then holds P itself.
func ExampleMutualExclusion() {
	const eps = 500 * us
	m := spec.MutualExclusion{}
	for _, r := range []struct {
		model string
		guard simtime.Duration
	}{{"timed", 0}, {"clock", 0}, {"clock", eps}, {"clock", 2 * eps}} {
		cfg := core.Config{
			N:      3,
			Bounds: simtime.NewInterval(1*ms, 1*ms), // no messages are sent
			Seed:   5,
			Clocks: clock.SpreadFactory(eps),
		}
		net, err := core.Build(r.model, cfg, func(ta.NodeID, int) core.Algorithm {
			return &slotted{sigma: 4 * ms, guard: r.guard, rounds: 8}
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if _, err := net.Sys.RunQuiet(simtime.Time(simtime.Second)); err != nil {
			fmt.Println("error:", err)
			return
		}
		tr := net.Sys.Trace().Visible()
		n, worst, err := m.Overlaps(tr)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		p, _ := m.Holds(tr)
		pEps, _ := m.HoldsEps(tr, eps)
		fmt.Printf("%s guard %v: %d overlaps, worst %v, P %v, P_ε %v\n", r.model, r.guard, n, worst, p, pEps)
	}
	// Output:
	// timed guard 0s: 0 overlaps, worst 0s, P true, P_ε true
	// clock guard 0s: 8 overlaps, worst 1ms, P false, P_ε true
	// clock guard 500µs: 8 overlaps, worst 500µs, P false, P_ε true
	// clock guard 1ms: 0 overlaps, worst 0s, P true, P_ε true
}
