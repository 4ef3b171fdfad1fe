package core

import (
	"fmt"
	"math/rand"

	"psclock/internal/clock"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// StepPolicy resolves the MMT model's step-time nondeterminism: every
// locally controlled class has boundmap [0, ℓ] (§5.2), so consecutive step
// opportunities are separated by some duration in (0, ℓ]. Next must return
// a value in that range.
type StepPolicy interface {
	// Name describes the policy for reports.
	Name() string
	// Next picks the gap to the next step opportunity.
	Next(r *rand.Rand, ell simtime.Duration) simtime.Duration
}

// FixedStepPolicy is an optional refinement of StepPolicy for policies
// whose gap is a deterministic function of ℓ and which never consult the
// node's random stream. The coalescing fast path (ta.Coalescable) uses it
// to collapse a run of skipped step opportunities into one arithmetic
// jump; a policy without it is fast-forwarded by replaying Next draw by
// draw, which keeps the seeded stream — and therefore every later gap —
// byte-identical to the dense execution.
type FixedStepPolicy interface {
	StepPolicy
	// FixedGap returns the constant gap for step bound ell and ok=true, or
	// ok=false when the policy is effectively random for this ell.
	FixedGap(ell simtime.Duration) (simtime.Duration, bool)
}

type stepFunc struct {
	name string
	fn   func(r *rand.Rand, ell simtime.Duration) simtime.Duration
	// fixed, when non-nil, marks fn as a deterministic function of ell that
	// consumes no randomness.
	fixed func(ell simtime.Duration) simtime.Duration
}

func (s stepFunc) Name() string { return s.name }
func (s stepFunc) Next(r *rand.Rand, ell simtime.Duration) simtime.Duration {
	return s.fn(r, ell)
}
func (s stepFunc) FixedGap(ell simtime.Duration) (simtime.Duration, bool) {
	if s.fixed == nil {
		return 0, false
	}
	return s.fixed(ell), true
}

// LazySteps always waits the full ℓ: the worst-case adversary against which
// the kℓ+2ε+3ℓ output-shift bound of Theorem 5.1 is tight.
func LazySteps() StepPolicy {
	full := func(ell simtime.Duration) simtime.Duration { return ell }
	return stepFunc{
		name:  "lazy",
		fn:    func(_ *rand.Rand, ell simtime.Duration) simtime.Duration { return full(ell) },
		fixed: full,
	}
}

// EagerSteps steps at ℓ/8 (at least 1ns): a fast processor.
func EagerSteps() StepPolicy {
	eighth := func(ell simtime.Duration) simtime.Duration { return (ell / 8).Max(1) }
	return stepFunc{
		name:  "eager",
		fn:    func(_ *rand.Rand, ell simtime.Duration) simtime.Duration { return eighth(ell) },
		fixed: eighth,
	}
}

// UniformSteps picks each gap uniformly in (0, ℓ]. A non-positive ℓ (which
// would make rand.Int63n panic) degenerates to the minimum 1ns gap, the
// same clamp the node applies to every policy's output.
func UniformSteps() StepPolicy {
	return stepFunc{name: "uniform", fn: func(r *rand.Rand, ell simtime.Duration) simtime.Duration {
		if ell <= 0 {
			return 1
		}
		return simtime.Duration(r.Int63n(int64(ell))) + 1
	}}
}

// EmittedStamp records one output emitted by an MMT node: the clock value
// the simulated clock automaton associated with it (its position in the
// fragment), the real time it was actually emitted, and how long it sat in
// the pending queue.
type EmittedStamp struct {
	Action   ta.Action
	SimClock simtime.Time
	Real     simtime.Time
	Queued   simtime.Duration
}

// MMTNode is the transformed automaton M(A^c_{i,ε}, ℓ) of Definition 5.1.
// It simulates the clock-model node composite A^c_{i,ε} with three
// realistic restrictions:
//
//   - it acts only at step opportunities separated by at most ℓ;
//   - it knows the clock only through TICK(c) inputs (the mmtclock
//     component), so it can miss clock values entirely;
//   - it emits at most one output per step, through the pending queue.
//
// Every step and every input first "catches up" the simulated composite to
// mmtclock (the derived frag of Definition 5.1), collecting the outputs the
// composite would have performed into pending.
type MMTNode struct {
	name  string
	id    ta.NodeID
	inner *Composite

	mmtclock simtime.Time
	pending  []Stamped
	queuedAt []simtime.Time

	ell      simtime.Duration
	policy   StepPolicy
	rng      *rand.Rand
	nextStep simtime.Time

	// fixedGap caches FixedStepPolicy's constant gap (clamped like gap()),
	// or 0 when the policy is random; skippedSteps counts step
	// opportunities elided by FastForward.
	fixedGap     simtime.Duration
	skippedSteps int64

	stamps []EmittedStamp
	out    []ta.Action // reusable return buffer
	// RecordStamps controls emission recording (on by default).
	RecordStamps bool
	// MaxPending tracks the high-water mark of the pending queue; the
	// Lemma 4.3 rate restriction keeps it bounded.
	MaxPending int
}

var _ ta.Coalescable = (*MMTNode)(nil)

// NewMMTNode returns the MMT-model node automaton for node id of an n-node
// system running alg with step bound ell.
func NewMMTNode(id ta.NodeID, n int, alg Algorithm, ell simtime.Duration, policy StepPolicy, seed int64) *MMTNode {
	if ell <= 0 {
		panic(fmt.Sprintf("core: MMT step bound ℓ must be positive, got %v", ell))
	}
	mn := &MMTNode{
		name:         fmt.Sprintf("mnode(%v)", id),
		id:           id,
		inner:        NewComposite(id, n, alg),
		ell:          ell,
		policy:       policy,
		rng:          rand.New(rand.NewSource(seed)),
		RecordStamps: true,
	}
	if fp, ok := policy.(FixedStepPolicy); ok {
		if g, fixed := fp.FixedGap(ell); fixed {
			if g < 1 {
				g = 1
			}
			if g > ell {
				g = ell
			}
			mn.fixedGap = g
		}
	}
	return mn
}

// Name implements ta.Automaton.
func (mn *MMTNode) Name() string { return mn.name }

// Stamps returns the emission records for this node's outputs.
func (mn *MMTNode) Stamps() []EmittedStamp { return mn.stamps }

// RestrictNeighbors limits this node's outgoing edges to ns (§2.4
// topology). Call before the system runs.
func (mn *MMTNode) RestrictNeighbors(ns []ta.NodeID) { mn.inner.eng.restrict(ns) }

// Pending returns the current length of the pending output queue.
func (mn *MMTNode) Pending() int { return len(mn.pending) }

// Matches reports whether a is an input of this node: a TICK from its
// clock subsystem, an ERECVMSG from a clock-model edge, or an environment
// invocation partitioned here.
func (mn *MMTNode) Matches(a ta.Action) bool {
	if a.Name == ta.NameTick || a.Name == ta.NameERecvMsg {
		return a.Node == mn.id
	}
	return a.Node == mn.id && a.Kind == ta.KindInput && !a.IsMessage()
}

// pend routes inner actions: outputs of the composite (ESENDMSG and
// environment responses) join the pending queue to be emitted one per
// step; the composite's hidden interface actions (SENDMSG, RECVMSG) are
// internal to the simulation and surface immediately for observability.
func (mn *MMTNode) pend(now simtime.Time, ss []Stamped) []ta.Action {
	out := mn.out[:0]
	for _, s := range ss {
		switch s.Act.Name {
		case ta.NameSendMsg, ta.NameRecvMsg:
			a := s.Act
			a.Kind = ta.KindInternal
			out = append(out, a)
		default:
			mn.pending = append(mn.pending, s)
			mn.queuedAt = append(mn.queuedAt, now)
			if len(mn.pending) > mn.MaxPending {
				mn.MaxPending = len(mn.pending)
			}
		}
	}
	mn.out = out
	return out
}

// Init implements ta.Automaton: the first step opportunity is scheduled,
// and the composite starts at clock 0 (mmtclock starts at 0, C1).
func (mn *MMTNode) Init() []ta.Action {
	mn.nextStep = simtime.Zero.Add(mn.gap())
	return mn.pend(0, mn.inner.Start(0))
}

func (mn *MMTNode) gap() simtime.Duration {
	g := mn.policy.Next(mn.rng, mn.ell)
	if g < 1 {
		g = 1
	}
	if g > mn.ell {
		g = mn.ell
	}
	return g
}

// Deliver implements ta.Automaton. Per Definition 5.1, a TICK only updates
// mmtclock; any other input applies to the caught-up state (fragstate) and
// its outputs are added to pending.
func (mn *MMTNode) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !mn.Matches(a) {
		return nil
	}
	switch a.Name {
	case ta.NameTick:
		c, ok := a.Payload.(simtime.Time)
		if !ok {
			panic(fmt.Sprintf("core: TICK payload %T is not simtime.Time", a.Payload))
		}
		if c.After(mn.mmtclock) {
			mn.mmtclock = c
		}
		return nil
	case ta.NameERecvMsg:
		tm, ok := a.Payload.(ta.TaggedMsg)
		if !ok {
			panic(fmt.Sprintf("core: ERECVMSG payload %T is not ta.TaggedMsg", a.Payload))
		}
		return mn.pend(now, mn.inner.Receive(mn.mmtclock, a.Peer, tm))
	default:
		return mn.pend(now, mn.inner.Input(mn.mmtclock, a.Name, a.Payload))
	}
}

// Due implements ta.Automaton: the next step opportunity. The single
// partition class (all outputs plus the internal catch-up action τ) is
// always enabled, so steps recur forever with gaps in (0, ℓ].
func (mn *MMTNode) Due(simtime.Time) (simtime.Time, bool) {
	return mn.nextStep, true
}

// Fire implements ta.Automaton: one MMT step. The simulated composite is
// caught up to mmtclock; then, if pending is nonempty, the head output is
// performed (the rest wait for subsequent steps), and otherwise the step
// was the internal τ.
func (mn *MMTNode) Fire(now simtime.Time) []ta.Action {
	if now.Before(mn.nextStep) {
		return nil
	}
	mn.nextStep = now.Add(mn.gap())
	out := mn.pend(now, mn.inner.Advance(mn.mmtclock))
	if len(mn.pending) > 0 {
		head := mn.pending[0]
		qAt := mn.queuedAt[0]
		mn.pending = mn.pending[1:]
		mn.queuedAt = mn.queuedAt[1:]
		if mn.RecordStamps {
			mn.stamps = append(mn.stamps, EmittedStamp{
				Action:   head.Act,
				SimClock: head.At,
				Real:     now,
				Queued:   now.Sub(qAt),
			})
		}
		out = append(out, head.Act)
		mn.out = out
	}
	return out
}

// SkippedSteps reports how many step opportunities the coalescing fast
// path elided as unobservable.
func (mn *MMTNode) SkippedSteps() int64 { return mn.skippedSteps }

// NextInterest implements ta.Coalescable. A step opportunity is
// observable exactly when taking it would do more than the internal τ:
// the pending queue holds an output to emit, or the simulated composite
// has work at or below mmtclock for the catch-up to perform. Otherwise
// the step changes nothing any component can see, and — absent inputs,
// which re-bound the executor's skip horizon on their own — neither will
// any later step until a TICK raises mmtclock (the tick source declares
// that crossing via ClockDemand), so no step deadline is of interest.
func (mn *MMTNode) NextInterest() simtime.Time {
	if len(mn.pending) > 0 {
		return mn.nextStep
	}
	if c, ok := mn.inner.NextDue(); ok && !c.After(mn.mmtclock) {
		return mn.nextStep
	}
	return simtime.Never
}

// ClockDemand reports the clock threshold this node is waiting for: the
// simulated composite's next deadline when it lies above mmtclock, so
// only a TICK can unblock it. ok=false means no tick payload would change
// what the node does (it is either already unblocked — its own step
// deadline is the interest then — or has no composite work at all).
// The node's tick source uses this to pick the single TICK worth
// synthesizing.
func (mn *MMTNode) ClockDemand() (simtime.Time, bool) {
	if len(mn.pending) > 0 {
		return 0, false
	}
	c, ok := mn.inner.NextDue()
	if !ok || !c.After(mn.mmtclock) {
		return 0, false
	}
	return c, true
}

// FastForward implements ta.Coalescable: advance the step schedule past
// every opportunity strictly before to, exactly as if each idle step had
// fired. Fixed-gap policies jump arithmetically; random policies replay
// their draws so the seeded stream stays byte-identical to the dense
// execution.
func (mn *MMTNode) FastForward(to simtime.Time) {
	if !mn.nextStep.Before(to) {
		return
	}
	if mn.fixedGap > 0 {
		k := (int64(to.Sub(mn.nextStep)) + int64(mn.fixedGap) - 1) / int64(mn.fixedGap)
		mn.nextStep = mn.nextStep.Add(simtime.Duration(k * int64(mn.fixedGap)))
		mn.skippedSteps += k
		return
	}
	for mn.nextStep.Before(to) {
		mn.nextStep = mn.nextStep.Add(mn.gap())
		mn.skippedSteps++
	}
}

// TickSource is the clock subsystem automaton C^m_{i,ε,ℓ} of §5.2: its
// sole output is TICK(c), where c is always within ε of real time. Ticks
// recur with the given period (which must be ≤ ℓ for the node to keep
// making progress against its clock deadlines).
type TickSource struct {
	name   string
	id     ta.NodeID
	clk    clock.Model
	period simtime.Duration
	next   simtime.Time
	buf    [1]ta.Action // reusable return buffer

	// demand, when wired (SetDemand), reports the clock threshold the
	// node is waiting on; skipped counts TICKs the coalescing fast path
	// elided as unobservable.
	demand  func() (simtime.Time, bool)
	skipped int64
}

var _ ta.Coalescable = (*TickSource)(nil)

// NewTickSource returns the TICK emitter for node id driven by clk.
func NewTickSource(id ta.NodeID, clk clock.Model, period simtime.Duration) *TickSource {
	if period <= 0 {
		panic(fmt.Sprintf("core: tick period must be positive, got %v", period))
	}
	return &TickSource{
		name:   fmt.Sprintf("ticks(%v)", id),
		id:     id,
		clk:    clk,
		period: period,
	}
}

// Name implements ta.Automaton.
func (ts *TickSource) Name() string { return ts.name }

// Init implements ta.Automaton: a first TICK at time zero tells the node
// its clock starts at 0.
func (ts *TickSource) Init() []ta.Action {
	ts.next = simtime.Zero.Add(ts.period)
	ts.buf[0] = ts.tick(0)
	return ts.buf[:]
}

// Deliver implements ta.Automaton (no inputs).
func (ts *TickSource) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }

// Due implements ta.Automaton.
func (ts *TickSource) Due(simtime.Time) (simtime.Time, bool) { return ts.next, true }

// Fire implements ta.Automaton.
func (ts *TickSource) Fire(now simtime.Time) []ta.Action {
	if now.Before(ts.next) {
		return nil
	}
	ts.next = now.Add(ts.period)
	ts.buf[0] = ts.tick(now)
	return ts.buf[:]
}

// SetDemand wires the clock-threshold query the source consults when
// declaring interest — in the composed MMT system, the node's
// ClockDemand. An unwired source treats every tick as observable and is
// never coalesced.
func (ts *TickSource) SetDemand(fn func() (simtime.Time, bool)) { ts.demand = fn }

// SkippedTicks reports how many TICK emissions the coalescing fast path
// elided as unobservable.
func (ts *TickSource) SkippedTicks() int64 { return ts.skipped }

// NextInterest implements ta.Coalescable. A TICK matters only when its
// payload crosses the clock threshold the node is waiting on (§5.2:
// "specific clock values can be missed"); every earlier tick merely
// nudges mmtclock below that threshold, which no enabled action can see.
// When the node demands nothing, no future tick is of interest — the
// executor's skip horizon is then set by whatever event does matter, and
// FastForward plants the sync TICK just before it so mmtclock is as
// fresh there as the dense schedule would have left it.
func (ts *TickSource) NextInterest() simtime.Time {
	if ts.demand == nil {
		return ts.next
	}
	c, ok := ts.demand()
	if !ok {
		return simtime.Never
	}
	return ts.nextTickReaching(c)
}

// nextTickReaching returns the first scheduled tick whose payload reaches
// clock value c: ticks fire on the period grid anchored at next, and the
// clock is monotone, so that is the first grid point at or after the
// earliest real time the clock reads c.
func (ts *TickSource) nextTickReaching(c simtime.Time) simtime.Time {
	u := ts.clk.EarliestAt(c)
	if u == simtime.Never {
		return simtime.Never
	}
	if !u.After(ts.next) {
		return ts.next
	}
	k := (int64(u.Sub(ts.next)) + int64(ts.period) - 1) / int64(ts.period)
	return ts.next.Add(simtime.Duration(k) * ts.period)
}

// FastForward implements ta.Coalescable: skip the ticks strictly before
// to, except that the newest grid point at or before to is kept as the
// pending sync TICK. It fires at its exact dense-schedule time with its
// exact dense payload, and because clocks are monotone (axiom C3) and
// mmtclock is a running maximum, that single tick leaves mmtclock at `to`
// byte-identical to delivering the whole skipped run.
func (ts *TickSource) FastForward(to simtime.Time) {
	if !ts.next.Before(to) {
		return
	}
	k := int64(to.Sub(ts.next)) / int64(ts.period)
	ts.next = ts.next.Add(simtime.Duration(k) * ts.period)
	ts.skipped += k
}

func (ts *TickSource) tick(now simtime.Time) ta.Action {
	return ta.Action{
		Name:    ta.NameTick,
		Node:    ts.id,
		Peer:    ta.NoNode,
		Kind:    ta.KindOutput,
		Payload: ts.clk.At(now),
	}
}
