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
// clock-step fault — the fleet chaos controller's clock adversary — on the
// live node. A step held within ε stays inside SafeTimeoutClock's 4ε
// margin: no suspicions. A step far past ε breaks the detector's
// accuracy at the faulty node: its watch timers were armed in pre-step
// clock coordinates, so after the jump their effective timeout shrinks by
// the step — below the peers' beat cadence — and it falsely suspects live
// peers, restoring them when their (punctual) beats arrive. Peers may
// also transiently suspect the stepped node (its beats carry stamps from
// the future, which the receive discipline holds until the local clock
// catches up), so the only invariant on the other side is that every
// suspicion involves the faulty node. The step folds into measured ε̂ —
// the evidence the fleet's chaos classifier flags — and is the only fault
// of the run.
func TestLiveDetectorClockStep(t *testing.T) {
	m := simModel
	m.D2 = 5 * ms
	period := 20 * ms
	// A healthy pair rides out wakes served up to ℓ late on both sides.
	timeout := detector.SafeTimeoutClock(period, m.Bounds(), m.Eps) + 2*m.Ell
	// The step lies in the middle of (τ − π, τ): past τ − π, so the stepped
	// node's watch timers fire before the next beat (a false suspicion,
	// restored when the beat arrives); short of τ, so beats survive.
	step := timeout - period/2

	sink := &eventSink{}
	rt, err := New(Options{
		N:      3,
		Bounds: m.Bounds(),
		Clocks: clock.PerfectFactory(),
	}, func(id ta.NodeID, n int) core.Algorithm {
		return detector.New(detector.Params{Period: period, Timeout: timeout})
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(sink)
	d := newSimDriver(t, rt, m, 1)
	setStep := func(s simtime.Duration) {
		t.Helper()
		if err := rt.SetClockStep(0, s); err != nil {
			t.Fatal(err)
		}
	}
	runFor := func(span simtime.Duration) { d.run(d.now.Add(span), nil) }

	// In-band twin: ε/2 forward, hold, heal. The 4ε margin absorbs it.
	runFor(100 * ms)
	setStep(m.Eps / 2)
	runFor(100 * ms)
	setStep(0)
	runFor(100 * ms)
	if sus := sink.named(detector.ActSuspect); len(sus) != 0 {
		t.Fatalf("ε/2 step caused suspicions: %v", sus)
	}

	// Past-ε step, held across several beat periods, then healed. Node 0's
	// loop armed its next wake-up in pre-step coordinates; SetClockStep pokes
	// it to re-read its clock now, so the watch timers are due τ − step =
	// π/2 after the last beat, before the next, and fire before the peers'
	// beats can re-arm them.
	setStep(step)
	by0 := func(name string) func() bool {
		return func() bool {
			for _, e := range sink.named(name) {
				if e.Action.Node == 0 {
					return true
				}
			}
			return false
		}
	}
	if !d.run(d.now.Add(10*period), by0(detector.ActSuspect)) {
		t.Fatal("no false suspicion by the stepped node within ten beat periods")
	}
	if !d.run(d.now.Add(10*period), by0(detector.ActRestore)) {
		t.Fatal("no restore by the stepped node within ten beat periods")
	}
	setStep(0)
	runFor(100 * ms)

	meas := d.finish()
	for _, e := range sink.named(detector.ActSuspect) {
		if e.Action.Node != 0 && e.Action.Payload.(ta.NodeID) != 0 {
			t.Errorf("suspicion %v→%v involves neither side of the clock fault",
				e.Action.Node, e.Action.Payload)
		}
	}
	// The step is evidence: every reading taken under it lands in the
	// measured ε̂, which is how the fleet's chaos classifier flags it.
	if meas.Eps < step {
		t.Errorf("measured ε̂ = %v does not include the %v step", meas.Eps, step)
	}
	// The step also makes a timer armed before it late, on the stepped
	// clock, by up to the step; the links stayed inside [d1, d2].
	if meas.TimerLate > step+m.Ell || meas.DelayViolations != 0 {
		t.Errorf("the step aside, the run left the model: %s", m.Envelope(meas))
	}
}

// TestClockStepUnreadIsStillEvidence: a step applied and healed while the
// node never reads its clock — an idle program with no timers armed —
// still shows in the measured ε̂, because SetClockStep takes a reading as
// it applies the step.
func TestClockStepUnreadIsStillEvidence(t *testing.T) {
	const step = 7 * ms
	rt, err := New(Options{N: 1, Clocks: clock.PerfectFactory()},
		func(ta.NodeID, int) core.Algorithm { return idle{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetClockStep(1, step); err == nil {
		t.Error("step at a node the runtime does not host: no error")
	}
	// Let the loop run Start and park: with no timer and an empty inbox it
	// does not read the clock again, and the poke's handler reads nothing.
	time.Sleep(20 * time.Millisecond)
	if err := rt.SetClockStep(0, -step); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetClockStep(0, 0); err != nil {
		t.Fatal(err)
	}
	if m := rt.Stop(); m.Eps != step {
		t.Errorf("measured ε̂ = %v after an unread %v step on a perfect clock, want exactly the step", m.Eps, -step)
	}
}

// idle is a node program that does nothing.
type idle struct{}

func (idle) Start(core.Context)                     {}
func (idle) OnInput(core.Context, string, any)      {}
func (idle) OnMessage(core.Context, ta.NodeID, any) {}
func (idle) OnTimer(core.Context, any)              {}
