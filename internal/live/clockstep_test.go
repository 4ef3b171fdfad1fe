package live

import (
	"testing"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// TestLiveDetectorClockStep drives the heartbeat detector through a
// StepClock fault — the fleet chaos controller's clock adversary — on a
// live runtime. A step held within ε stays inside SafeTimeoutClock's 4ε
// margin: no suspicions. A step far past ε breaks the detector's
// accuracy at the faulty node: its watch timers were armed in pre-step
// clock coordinates, so after the jump their effective timeout shrinks by
// the step — below the peers' beat cadence — and it falsely suspects live
// peers, restoring them when their (punctual) beats arrive. Peers may
// also transiently suspect the stepped node (its beats carry stamps from
// the future, which the receive discipline holds until the local clock
// catches up), so the only invariant on the other side is that every
// suspicion involves the faulty node. The step folds into measured ε̂ —
// the evidence the fleet's chaos classifier flags.
func TestLiveDetectorClockStep(t *testing.T) {
	eps := 200 * us
	period := 20 * ms
	bounds := simtime.NewInterval(0, 5*ms)
	timeout := detector.SafeTimeoutClock(period, bounds, eps) + 2*ellBudget
	step := 30 * ms // ≫ ε, < τ: beats survive, stamps break accuracy

	var faulty *StepClock
	sink := &eventSink{}
	rt, err := New(Options{
		N:      3,
		Bounds: bounds,
		Ell:    ellBudget,
		Clocks: clock.PerfectFactory(),
		WrapClock: func(node int, c Clock) Clock {
			s := NewStepClock(c)
			if node == 0 {
				faulty = s
			}
			return s
		},
	}, func(id ta.NodeID, n int) core.Algorithm {
		return detector.New(detector.Params{Period: period, Timeout: timeout})
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(sink)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	// In-band twin: ε/2 forward, hold, heal. The 4ε margin absorbs it.
	time.Sleep(100 * time.Millisecond * raceScale)
	faulty.SetOffset(eps / 2)
	time.Sleep(100 * time.Millisecond * raceScale)
	faulty.SetOffset(0)
	time.Sleep(100 * time.Millisecond * raceScale)
	if sus := sink.named(detector.ActSuspect); len(sus) != 0 {
		t.Fatalf("ε/2 step caused suspicions: %v", sus)
	}

	// Past-ε step, held across several beat periods, then healed. Nothing
	// tells node 0's loop that its clock moved: it armed its next wake-up in
	// pre-step coordinates, so left alone it wakes at the next beat phase,
	// where whether its early watch timers fire before the peers' beats
	// re-arm them is a race (lost 3 times in 20 by this test at PR 15). An
	// input the detector ignores makes the loop re-read its clock now, the
	// way a timer service that noticed the step would: the watch timers are
	// then due τ − step ≈ 6 ms after the last beat, 14 ms before the next.
	faulty.SetOffset(step)
	if err := rt.Invoke(0, "clock-stepped", nil); err != nil {
		t.Fatal(err)
	}
	waitFor := func(name string, by ta.NodeID, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, e := range sink.named(name) {
				if e.Action.Node == by {
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("no %s within deadline", what)
	}
	waitFor(detector.ActSuspect, 0, "false suspicion by the stepped node")
	waitFor(detector.ActRestore, 0, "restore by the stepped node")
	faulty.SetOffset(0)
	time.Sleep(100 * time.Millisecond * raceScale)

	m := rt.Stop()
	for _, e := range sink.named(detector.ActSuspect) {
		if e.Action.Node != 0 && e.Action.Payload.(ta.NodeID) != 0 {
			t.Errorf("suspicion %v→%v involves neither side of the clock fault",
				e.Action.Node, e.Action.Payload)
		}
	}
	// The step is evidence: OffsetBound folds the high-water |offset| into
	// measured ε̂, which is how the fleet's chaos classifier flags it.
	if m.Eps < simtime.Duration(step) {
		t.Errorf("measured ε̂ = %v does not include the %v step", m.Eps, step)
	}
}
