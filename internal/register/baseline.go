package register

import (
	"fmt"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Baseline is a reconstruction of the clock-model linearizable register
// algorithm of Mavronicolas [10], the comparison target of §6.3.
//
// [10] is a PhD thesis that the paper cites only through its model ("clocks
// within a constant u of each other, proceeding at the real-time rate") and
// its complexity: read 4u, write d2+3u, achieved "with some complicated
// time-slicing". This reconstruction follows that description: writes are
// applied at *slot boundaries* — local clock times that are multiples of
// the slot width u — and are engineered to the published complexity
// envelope:
//
//   - WRITE(v) at local clock t broadcasts UPDATE(v, T) with
//     T = ceil_u(t + d2 + u): by then every node has received the message
//     (clock skew between nodes is at most u), and T lies on a slot
//     boundary. The writer acks at local clock T + u, when every node's
//     clock has surely passed T, so the update is applied everywhere.
//     Worst-case write cost: (t+d2+u rounded up by < u) + u − t < d2 + 3u.
//   - READ at local clock t waits until t + 4u and returns the local copy:
//     long enough that any update a previously-completed operation
//     witnessed (at most u of real-time application spread, plus u of
//     clock disagreement) has been applied locally.
//
// In the paper's clock model (|clock − now| ≤ ε), [10]'s precision u
// equals 2ε (§6.3). The reconstruction's costs match [10]'s bounds, so the
// §6.3 comparison — combined cost d2+7u versus the transformed algorithm
// S's d2+2u, with the read-cost crossover at c ≈ 3u−δ — is preserved; see
// DESIGN.md for the substitution note.
type Baseline struct {
	u  simtime.Duration // [10]'s clock precision, = 2ε in our model
	d2 simtime.Duration // physical link delay upper bound

	cur     Update
	updates map[simtime.Time]Update
	due     []simtime.Time // scratch for applyDueUpdates, reused across calls
}

var _ core.Algorithm = (*Baseline)(nil)

// NewBaseline returns the baseline for clock precision u = 2ε and link
// delay bound d2.
func NewBaseline(u, d2 simtime.Duration) *Baseline {
	if u < 0 || d2 <= 0 {
		panic(fmt.Sprintf("register: invalid baseline params u=%v d2=%v", u, d2))
	}
	return &Baseline{u: u, d2: d2, cur: initial, updates: make(map[simtime.Time]Update)}
}

// BaselineFactory adapts NewBaseline to core.AlgorithmFactory.
func BaselineFactory(u, d2 simtime.Duration) core.AlgorithmFactory {
	return func(ta.NodeID, int) core.Algorithm { return NewBaseline(u, d2) }
}

// ceilSlot rounds t up to the next slot boundary (multiple of u).
func (b *Baseline) ceilSlot(t simtime.Time) simtime.Time {
	if b.u <= 0 {
		return t
	}
	rem := int64(t) % int64(b.u)
	if rem == 0 {
		return t
	}
	return t.Add(b.u - simtime.Duration(rem))
}

// Start implements core.Algorithm.
func (b *Baseline) Start(core.Context) {}

// OnInput implements core.Algorithm.
func (b *Baseline) OnInput(ctx core.Context, name string, payload any) {
	switch name {
	case ActRead:
		ctx.SetTimer(ctx.Time().Add(4*b.u), readTimer{})
	case ActWrite:
		v, ok := payload.(Value)
		if !ok {
			panic(fmt.Sprintf("register: WRITE payload %T is not a Value", payload))
		}
		apply := b.ceilSlot(ctx.Time().Add(b.d2 + b.u))
		ctx.Broadcast(updateMsg{V: v, T: apply})
		ctx.SetTimer(apply.Add(b.u), ackTimer{})
	default:
		panic(fmt.Sprintf("register: unknown input %q", name))
	}
}

// OnMessage implements core.Algorithm: record the update for its slot,
// keeping the largest writer index per slot, and schedule its application.
func (b *Baseline) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	m, ok := body.(updateMsg)
	if !ok {
		panic(fmt.Sprintf("register: unexpected message %T", body))
	}
	if prev, exists := b.updates[m.T]; exists {
		if prev.By < from {
			b.updates[m.T] = Update{m.T, from, m.V}
		}
		return
	}
	b.updates[m.T] = Update{m.T, from, m.V}
	ctx.SetTimer(m.T, updateTimer{at: m.T})
}

// OnTimer implements core.Algorithm.
func (b *Baseline) OnTimer(ctx core.Context, key any) {
	switch key.(type) {
	case updateTimer:
		b.applyDue(ctx.Time())
	case readTimer:
		b.applyDue(ctx.Time())
		ctx.Output(ActReturn, b.cur.V)
	case ackTimer:
		ctx.Output(ActAck, nil)
	default:
		panic(fmt.Sprintf("register: unknown timer %T", key))
	}
}

func (b *Baseline) applyDue(now simtime.Time) {
	applyDueUpdates(b.updates, &b.cur, now, &b.due)
}

// Costs returns the baseline's analytical worst-case read and write time
// complexities from [10]: 4u and d2+3u.
func (b *Baseline) Costs() (read, write simtime.Duration) {
	return 4 * b.u, b.d2 + 3*b.u
}
