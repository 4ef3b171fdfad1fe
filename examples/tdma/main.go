// TDMA: the paper's §7.1 design technique on a second problem — time-slot
// mutual exclusion for a shared resource.
//
// In the timed-automaton programming model the algorithm is trivial: node
// i uses the resource during slots k·σ .. (k+1)·σ with k ≡ i (mod n); no
// guard gap is needed because everyone agrees on the time. Run unchanged
// in the clock model, adjacent slot owners can overlap in real time by up
// to 2ε — the property "mutual exclusion" is *not* closed under the P_ε
// perturbation, so Theorem 4.7 only gives us P_ε, not P.
//
// The fix is the paper's second technique: design a stronger problem Q
// with Q_ε ⊆ P — here, slots with a guard gap of 2ε between release and
// the next acquire. This program measures real-time overlaps for both
// variants under maximally skewed clocks.
package main

import (
	"fmt"
	"log"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/spec"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// slotted is the TDMA algorithm, written against perfect time (§3 model).
type slotted struct {
	sigma  simtime.Duration // slot width
	guard  simtime.Duration // gap left idle at the end of each slot
	rounds int              // how many of its slots each node uses
}

type slotKey struct {
	k       int
	acquire bool
}

var _ core.Algorithm = (*slotted)(nil)

func (s *slotted) Start(ctx core.Context) {
	first := int(ctx.ID())
	ctx.SetTimer(simtime.Zero.Add(simtime.Duration(first)*s.sigma), slotKey{k: first, acquire: true})
}

func (s *slotted) OnInput(core.Context, string, any) {}

func (s *slotted) OnMessage(core.Context, ta.NodeID, any) {}

func (s *slotted) OnTimer(ctx core.Context, key any) {
	sk := key.(slotKey)
	start := simtime.Zero.Add(simtime.Duration(sk.k) * s.sigma)
	if sk.acquire {
		ctx.Output("ACQUIRE", sk.k)
		ctx.SetTimer(start.Add(s.sigma-s.guard), slotKey{k: sk.k, acquire: false})
		return
	}
	ctx.Output("RELEASE", sk.k)
	s.rounds--
	if s.rounds > 0 {
		next := sk.k + ctx.N()
		ctx.SetTimer(simtime.Zero.Add(simtime.Duration(next)*s.sigma), slotKey{k: next, acquire: true})
	}
}

func runTDMA(model string, eps, guard simtime.Duration) (int, simtime.Duration, error) {
	cfg := core.Config{
		N:      3,
		Bounds: simtime.NewInterval(1*ms, 1*ms), // links unused by this algorithm
		Seed:   5,
		Clocks: clock.SpreadFactory(eps),
	}
	factory := func(ta.NodeID, int) core.Algorithm {
		return &slotted{sigma: 4 * ms, guard: guard, rounds: 8}
	}
	net, err := core.Build(model, cfg, factory)
	if err != nil {
		return 0, 0, err
	}
	if _, err := net.Sys.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		return 0, 0, err
	}
	return spec.MutualExclusion{}.Overlaps(net.Sys.Trace().Visible())
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eps := 500 * us
	tb := stats.NewTable("model", "guard", "overlaps", "worst overlap", "mutual exclusion")
	rows := []struct {
		model string
		guard simtime.Duration
	}{
		{"timed", 0},
		{"clock", 0},
		{"clock", eps},
		{"clock", 2 * eps},
	}
	for _, r := range rows {
		n, worst, err := runTDMA(r.model, eps, r.guard)
		if err != nil {
			return err
		}
		ok := "holds"
		if n > 0 {
			ok = "VIOLATED"
		}
		tb.AddRow(r.model, r.guard.String(), fmt.Sprint(n), worst.String(), ok)
	}
	fmt.Printf("TDMA slots, σ = 4ms, ε = %v, maximally skewed clocks\n\n", eps)
	fmt.Print(tb.String())
	fmt.Println("\nguard 0 in the timed model is safe; the same program in the clock")
	fmt.Println("model overlaps by up to 2ε; a 2ε guard (the Q with Q_ε ⊆ P of §7.1)")
	fmt.Println("restores mutual exclusion without re-proving anything in the clock model.")
	return nil
}
