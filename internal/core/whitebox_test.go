package core

import (
	"fmt"
	"strings"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// collector is an algorithm that records message arrival (body, Time()).
type collector struct {
	got []struct {
		body any
		at   simtime.Time
	}
}

func (c *collector) Start(Context)                {}
func (c *collector) OnInput(Context, string, any) {}
func (c *collector) OnTimer(Context, any)         {}
func (c *collector) OnMessage(ctx Context, from ta.NodeID, body any) {
	c.got = append(c.got, struct {
		body any
		at   simtime.Time
	}{body, ctx.Time()})
}

func TestClockInnerHeadOfLineBlocking(t *testing.T) {
	// Figure 2's R_ji,ε is a queue: only the front is ever inspected. A
	// reordered arrival (large tag first) blocks a later-arriving message
	// with a smaller tag until the front's tag is reached.
	col := &collector{}
	ci := NewComposite(0, 2, col)
	ci.Start(0)

	// At clock 1, messages arrive from node 1 tagged 5 then 3.
	ci.Receive(1, 1, ta.TaggedMsg{Body: "tag5", SentClock: 5})
	ci.Receive(1, 1, ta.TaggedMsg{Body: "tag3", SentClock: 3})
	if len(col.got) != 0 {
		t.Fatalf("delivered early: %v", col.got)
	}
	// At clock 3 the front (tag 5) still blocks.
	ci.Advance(3)
	if len(col.got) != 0 {
		t.Fatalf("head-of-line violated: %v", col.got)
	}
	due, ok := ci.NextDue()
	if !ok || due != 5 {
		t.Fatalf("due = %v %v, want 5", due, ok)
	}
	// At clock 5 both deliver, front first, both at clock 5 (monotone).
	ci.Advance(5)
	if len(col.got) != 2 || col.got[0].body != "tag5" || col.got[1].body != "tag3" {
		t.Fatalf("delivery = %v", col.got)
	}
	if col.got[0].at != 5 || col.got[1].at != 5 {
		t.Errorf("delivery clocks = %v", col.got)
	}
	b, r, held := ci.BufferStats()
	if b != 2 || r != 2 || held != 4 {
		t.Errorf("stats = %d %d %v", b, r, held)
	}
}

func TestClockInnerSeparateQueuesDoNotBlock(t *testing.T) {
	// Queues are per incoming edge: a blocked queue from node 1 must not
	// delay a deliverable message from node 2 (beyond clock order).
	col := &collector{}
	ci := NewComposite(0, 3, col)
	ci.Start(0)
	ci.Receive(1, 1, ta.TaggedMsg{Body: "blocked", SentClock: 10})
	ci.Receive(1, 2, ta.TaggedMsg{Body: "ready", SentClock: 1})
	if len(col.got) != 1 || col.got[0].body != "ready" {
		t.Fatalf("cross-queue blocking: %v", col.got)
	}
}

func TestClockInnerNoBufferDeliversEarly(t *testing.T) {
	col := &collector{}
	ci := NewComposite(0, 2, col)
	ci.noBuffer = true
	ci.Start(0)
	ci.Receive(1, 1, ta.TaggedMsg{Body: "early", SentClock: 9})
	if len(col.got) != 1 {
		t.Fatalf("noBuffer did not deliver: %v", col.got)
	}
	// Delivered at clock 1 — before the tag, the exact anomaly §4 forbids.
	if col.got[0].at != 1 {
		t.Errorf("delivered at %v", col.got[0].at)
	}
}

// TestCompositeReceiveFromOutsideRange: R_ji,ε exists for senders 0..n-1
// only, so a Receive from any other sender panics naming it.
func TestCompositeReceiveFromOutsideRange(t *testing.T) {
	for _, from := range []ta.NodeID{2, ta.NoNode} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("sender %d,", from); !strings.Contains(msg, want) {
					t.Errorf("Receive from %d: panic %q, want one naming %q", from, msg, want)
				}
			}()
			NewComposite(0, 2, &relay{}).Receive(0, from, ta.TaggedMsg{Body: "m"})
		}()
	}
	if out := NewComposite(0, 2, &relay{}).Receive(0, 1, ta.TaggedMsg{Body: "m"}); len(out) == 0 {
		t.Error("in-range message with a reached tag was not delivered")
	}
}

// tieAlg sets a timer at clock 5 and records, in order, the message and
// the timer callbacks.
type tieAlg struct{ order []string }

func (a *tieAlg) Start(ctx Context)                 { ctx.SetTimer(5, nil) }
func (a *tieAlg) OnInput(Context, string, any)      {}
func (a *tieAlg) OnMessage(Context, ta.NodeID, any) { a.order = append(a.order, "message") }
func (a *tieAlg) OnTimer(Context, any)              { a.order = append(a.order, "timer") }

func TestClockInnerReleaseBeforeTimer(t *testing.T) {
	// A buffered message whose tag equals a timer's deadline is released
	// first: the timer's callback runs on state that includes it.
	alg := &tieAlg{}
	ci := NewComposite(0, 2, alg)
	ci.Start(0)
	ci.Receive(1, 1, ta.TaggedMsg{Body: "m", SentClock: 5})
	ci.Advance(5)
	if len(alg.order) != 2 || alg.order[0] != "message" || alg.order[1] != "timer" {
		t.Fatalf("order at clock 5 = %v, want [message timer]", alg.order)
	}
}

// lateTimerAlg sets a timer in the past from a message handler.
type lateTimerAlg struct {
	fired []simtime.Time
}

func (l *lateTimerAlg) Start(Context)                {}
func (l *lateTimerAlg) OnInput(Context, string, any) {}
func (l *lateTimerAlg) OnMessage(ctx Context, _ ta.NodeID, _ any) {
	ctx.SetTimer(ctx.Time().Add(-5), "past")
}
func (l *lateTimerAlg) OnTimer(ctx Context, _ any) {
	l.fired = append(l.fired, ctx.Time())
}

func TestEngineClampsPastTimers(t *testing.T) {
	alg := &lateTimerAlg{}
	eng := newEngine(0, 1, alg)
	eng.start(0)
	eng.message(10, 0, "m")
	out := eng.advance(10)
	if len(out) != 0 && len(alg.fired) != 1 {
		t.Fatalf("fired = %v", alg.fired)
	}
	if len(alg.fired) != 1 || alg.fired[0] != 10 {
		t.Fatalf("past timer fired at %v, want clamped to 10", alg.fired)
	}
}

func TestEngineTimerOrderWithinAdvance(t *testing.T) {
	order := []string{}
	alg := &orderAlg{order: &order}
	eng := newEngine(0, 1, alg)
	eng.start(0)
	// Registered out of order; must fire by (deadline, registration).
	eng.input(0, "SET", nil)
	eng.advance(100)
	want := []string{"t5", "t5b", "t9"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

type orderAlg struct{ order *[]string }

func (o *orderAlg) Start(Context) {}
func (o *orderAlg) OnInput(ctx Context, _ string, _ any) {
	ctx.SetTimer(9, "t9")
	ctx.SetTimer(5, "t5")
	ctx.SetTimer(5, "t5b")
}
func (o *orderAlg) OnMessage(Context, ta.NodeID, any) {}
func (o *orderAlg) OnTimer(ctx Context, key any) {
	*o.order = append(*o.order, key.(string))
}

func TestMMTTimerWaitsForTick(t *testing.T) {
	// An MMT node's timer at clock T must not fire until a TICK raises
	// mmtclock to T — the "missed clock value" phenomenon of §5.
	alg := &relay{wait: 1 * ms}
	mn := NewMMTNode(0, 1, alg, 100*us, LazySteps(), 1)
	mn.Init()
	mn.Deliver(0, ta.Action{Name: "GO", Node: 0, Kind: ta.KindInput})

	// Steps happen, but with mmtclock = 0 the 1ms timer never fires.
	for now := simtime.Time(100 * us); now <= simtime.Time(2*ms); now = now.Add(100 * us) {
		if acts := mn.Fire(now); len(acts) != 0 {
			t.Fatalf("fired %v before any tick", acts)
		}
	}
	// A tick reporting clock 1ms arrives late, at real 2.1ms.
	mn.Deliver(simtime.Time(2100*us), ta.Action{Name: ta.NameTick, Node: 0, Kind: ta.KindInput, Payload: simtime.Time(ms)})
	acts := mn.Fire(simtime.Time(2200 * us))
	if len(acts) != 1 || acts[0].Name != "DONE" {
		t.Fatalf("acts = %v", acts)
	}
	// The emitted stamp remembers the simulated clock time (1ms), not the
	// late real time.
	st := mn.Stamps()
	if len(st) != 1 || st[0].SimClock != simtime.Time(ms) {
		t.Fatalf("stamps = %v", st)
	}
}

func TestMMTTickMonotone(t *testing.T) {
	mn := NewMMTNode(0, 1, &relay{}, 100*us, LazySteps(), 1)
	mn.Init()
	mn.Deliver(10, ta.Action{Name: ta.NameTick, Node: 0, Kind: ta.KindInput, Payload: simtime.Time(50)})
	mn.Deliver(20, ta.Action{Name: ta.NameTick, Node: 0, Kind: ta.KindInput, Payload: simtime.Time(40)})
	if mn.mmtclock != 50 {
		t.Errorf("mmtclock = %v, regressed", mn.mmtclock)
	}
}

func TestTickSourceEmitsClockValues(t *testing.T) {
	clk := fakeClock{}
	ts := NewTickSource(2, clk, 100*us)
	init := ts.Init()
	if len(init) != 1 || init[0].Payload.(simtime.Time) != 7 {
		t.Fatalf("init = %v, want clock(0) = 7", init)
	}
	due, ok := ts.Due(0)
	if !ok || due != simtime.Time(100*us) {
		t.Fatalf("due = %v", due)
	}
	acts := ts.Fire(due)
	if len(acts) != 1 || acts[0].Name != ta.NameTick || acts[0].Node != 2 {
		t.Fatalf("acts = %v", acts)
	}
	if got := acts[0].Payload.(simtime.Time); got != due+7 {
		t.Fatalf("tick value = %v, want clock(now)", got)
	}
}

// fakeClock reports now+7.
type fakeClock struct{}

func (fakeClock) At(t simtime.Time) simtime.Time         { return t + 7 }
func (fakeClock) EarliestAt(c simtime.Time) simtime.Time { return c - 7 }
func (fakeClock) Epsilon() simtime.Duration              { return 7 }
func (fakeClock) Name() string                           { return "fake" }

// spammer emits outputs as fast as it can: one per timer tick.
type spammer struct{ period simtime.Duration }

func (s *spammer) Start(ctx Context)                 { ctx.SetTimer(ctx.Time().Add(s.period), nil) }
func (s *spammer) OnInput(Context, string, any)      {}
func (s *spammer) OnMessage(Context, ta.NodeID, any) {}
func (s *spammer) OnTimer(ctx Context, _ any) {
	ctx.Output("SPAM", ctx.Time())
	ctx.SetTimer(ctx.Time().Add(s.period), nil)
}

// TestMMTPendingGrowsWithoutRateLimit demonstrates why Theorem 5.1 needs
// the Lemma 4.3 rate restriction: a clock-model algorithm that produces
// outputs faster than one per step bound ℓ makes the MMT pending queue —
// and therefore the output shift — grow without bound.
func TestMMTPendingGrowsWithoutRateLimit(t *testing.T) {
	ell := 100 * us
	// The simulated algorithm emits an output every ℓ/4: four times the
	// drain rate of one output per step.
	mn := NewMMTNode(0, 1, &spammer{period: ell / 4}, ell, LazySteps(), 1)
	mn.RecordStamps = false
	s := exec.New()
	s.Add(mn)
	s.Add(NewTickSource(0, clock.Perfect(), ell))
	s.ConnectHeader(mn.Matches, mn)
	if err := s.Run(simtime.Time(20 * ms)); err != nil {
		t.Fatal(err)
	}
	early := mn.Pending()
	if err := s.Run(simtime.Time(40 * ms)); err != nil {
		t.Fatal(err)
	}
	late := mn.Pending()
	if late <= early || late < 100 {
		t.Errorf("pending did not grow: %d then %d (rate restriction appears unnecessary, contradicting Lemma 4.3)", early, late)
	}

	// A compliant algorithm (one output per 2ℓ) keeps pending bounded.
	ok := NewMMTNode(0, 1, &spammer{period: 2 * ell}, ell, LazySteps(), 1)
	ok.RecordStamps = false
	s2 := exec.New()
	s2.Add(ok)
	s2.Add(NewTickSource(0, clock.Perfect(), ell))
	s2.ConnectHeader(ok.Matches, ok)
	if err := s2.Run(simtime.Time(40 * ms)); err != nil {
		t.Fatal(err)
	}
	if ok.MaxPending > 4 {
		t.Errorf("compliant algorithm's pending reached %d", ok.MaxPending)
	}
}
