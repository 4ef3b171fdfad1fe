// Package register implements the paper's application (§6): linearizable
// read-write register algorithms.
//
//   - Algorithm L (§6.1, after Mavronicolas [10], generalizing
//     Attiya-Welch): designed in the timed-automaton model. A read waits
//     c+δ and returns the local copy; a write broadcasts UPDATE(v, t) and
//     acks after d'2−c; every node applies an update at exactly real time
//     t+δ, where t = sendTime+d'2, breaking same-instant ties by largest
//     writer index. Solves linearizability P with read cost c+δ and write
//     cost d'2−c (Lemma 6.1).
//
//   - Algorithm S (§6.2, Figure 3): L plus an extra 2ε wait at the start
//     of each read. Solves ε-superlinearizability Q (every operation
//     linearizes ≥ 2ε after invocation) with read cost 2ε+c+δ (Lemma 6.2).
//     Because Q_ε ⊆ P (Lemma 6.4), running S through the clock-model
//     transformation yields plain linearizability in the clock model with
//     read cost 2ε+δ+c and write cost d2+2ε−c (Theorem 6.5).
//
//   - Baseline: a reconstruction of the clock-model algorithm of [10]
//     (see baseline.go) with read cost 4u and write cost d2+3u for
//     u = 2ε, the comparison target of §6.3.
//
// All three implement core.Algorithm; L and S are written purely against
// Context.Time() and are therefore ε-time independent by construction.
package register

import (
	"fmt"
	"slices"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Environment action names of the register problem (§6.1).
const (
	ActRead   = "READ"
	ActWrite  = "WRITE"
	ActReturn = "RETURN"
	ActAck    = "ACK"
)

// Value is a register value. Written values are unique per execution
// (writer identity plus a per-writer sequence number), satisfying the §3
// uniqueness assumption.
type Value struct {
	Writer ta.NodeID
	Seq    int
}

// Initial is v_0, the register's initial value.
var Initial = Value{Writer: ta.NoNode, Seq: 0}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v == Initial {
		return "v0"
	}
	return fmt.Sprintf("%v.%d", v.Writer, v.Seq)
}

// updateMsg is the UPDATE(v, t) message: t is the sending time plus d'2,
// so the receiver applies the value at exactly t+δ (Figure 3).
type updateMsg struct {
	V Value
	T simtime.Time
}

// String implements fmt.Stringer (message labels must be stable).
func (m updateMsg) String() string { return fmt.Sprintf("upd(%v,%v)", m.V, m.T) }

// Params are the constants of algorithms L and S.
type Params struct {
	// C is the read/write tradeoff knob c ∈ [0, d'2−2ε] (§6.1).
	C simtime.Duration
	// Delta is δ, the arbitrarily small extra wait that adapts [10]'s
	// "inputs before outputs" model assumption to timed automata (§6.1).
	Delta simtime.Duration
	// D2 is d'2, the maximum message delay of the network the algorithm is
	// designed against. When the algorithm is run through the clock-model
	// transformation, this is the widened bound d2+2ε of Theorem 4.7.
	D2 simtime.Duration
	// Epsilon is ε, used by algorithm S for its extra 2ε read wait.
	Epsilon simtime.Duration
}

// Validate reports whether the parameters satisfy the §6.1 constraints.
func (p Params) Validate() error {
	if p.C < 0 || p.Delta <= 0 || p.D2 <= 0 || p.Epsilon < 0 {
		return fmt.Errorf("register: invalid params %+v (need C ≥ 0, Delta > 0, D2 > 0, Epsilon ≥ 0)", p)
	}
	if p.C > p.D2-2*p.Epsilon {
		return fmt.Errorf("register: c = %v exceeds d'2 − 2ε = %v", p.C, p.D2-2*p.Epsilon)
	}
	return nil
}

// timer keys
type (
	readTimer   struct{}
	ackTimer    struct{}
	updateTimer struct{}
)

// Update is one UPDATE as a register holds it: V from sender By, applied (or
// to be applied) at At. The initial value is the update nobody sent.
type Update struct {
	At simtime.Time
	By ta.NodeID
	V  Value
}

var initial = Update{By: ta.NoNode, V: Initial}

// pending holds the updates received but not yet applied, in application
// time order, at most one per instant.
type pending []Update

// put records u under OnMessage's rule — one update per instant, the larger
// sender wins — and reports whether u's instant is new. Updates arrive
// nearly in time order, so the place is found from the back.
func (q *pending) put(u Update) bool {
	s := *q
	i := len(s)
	for i > 0 && s[i-1].At > u.At {
		i--
	}
	if i > 0 && s[i-1].At == u.At {
		if s[i-1].By < u.By {
			s[i-1] = u
		}
		return false
	}
	*q = slices.Insert(s, i, u)
	return true
}

// apply removes the updates due at now and returns the last of them — the
// one that applying them in time order leaves standing — with ok false when
// none is due.
func (q *pending) apply(now simtime.Time) (last Update, ok bool) {
	s := *q
	n := 0
	for n < len(s) && !s[n].At.After(now) {
		n++
	}
	if n == 0 {
		return Update{}, false
	}
	last = s[n-1]
	*q = s[:copy(s, s[n:])]
	return last, true
}

// LS is the shared machinery of algorithms L and S; the only difference is
// the extra wait a read performs before sampling the local copy (0 for L,
// 2ε for S).
type LS struct {
	p         Params
	extraRead simtime.Duration

	cur     Update // the update that produced the current value
	updates pending
}

var _ core.Algorithm = (*LS)(nil)

// NewL returns algorithm L with the given parameters.
func NewL(p Params) *LS {
	return &LS{p: p, extraRead: 0, cur: initial}
}

// NewS returns algorithm S: L with the 2ε superlinearizability wait.
func NewS(p Params) *LS {
	return &LS{p: p, extraRead: 2 * p.Epsilon, cur: initial}
}

// Factory adapts a constructor to core.AlgorithmFactory.
func Factory(newAlg func(Params) *LS, p Params) core.AlgorithmFactory {
	return func(ta.NodeID, int) core.Algorithm { return newAlg(p) }
}

// Start implements core.Algorithm.
func (r *LS) Start(core.Context) {}

// OnInput implements core.Algorithm.
func (r *LS) OnInput(ctx core.Context, name string, payload any) {
	switch name {
	case ActRead:
		// Figure 3: read := (active, now + c + 2ε + δ) — respond then.
		ctx.SetTimer(ctx.Time().Add(r.extraRead+r.p.C+r.p.Delta), readTimer{})
	case ActWrite:
		// Figure 3: broadcast UPDATE with t = now + d'2 immediately
		// (the SENDMSG precondition send-time = now forces it), ack at
		// now + d'2 − c. The environment supplies v (WRITE_i(v)); the
		// workloads keep written values unique (§3).
		v, ok := payload.(Value)
		if !ok {
			panic(fmt.Sprintf("register: WRITE payload %T is not a Value", payload))
		}
		ctx.Broadcast(updateMsg{V: v, T: ctx.Time().Add(r.p.D2)})
		ctx.SetTimer(ctx.Time().Add(r.p.D2-r.p.C), ackTimer{})
	default:
		panic(fmt.Sprintf("register: unknown input %q", name))
	}
}

// OnMessage implements core.Algorithm: the RECVMSG effect of Figure 3 —
// record the update keyed by its application time t+δ, keeping only the
// largest sender index per instant — and schedule its application.
func (r *LS) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	m, ok := body.(updateMsg)
	if !ok {
		panic(fmt.Sprintf("register: unexpected message %T", body))
	}
	at := m.T.Add(r.p.Delta)
	if r.updates.put(Update{at, from, m.V}) {
		ctx.SetTimer(at, updateTimer{})
	}
}

// OnTimer implements core.Algorithm.
func (r *LS) OnTimer(ctx core.Context, key any) {
	switch k := key.(type) {
	case updateTimer:
		r.applyDue(ctx.Time())
	case readTimer:
		// Figure 3's RETURN precondition forbids responding while an
		// update is scheduled for this very instant; applying everything
		// due first realizes the same ordering.
		r.applyDue(ctx.Time())
		ctx.Output(ActReturn, r.cur.V)
	case ackTimer:
		ctx.Output(ActAck, nil)
	default:
		panic(fmt.Sprintf("register: unknown timer %T %v", k, k))
	}
}

// applyDue applies, in time order, every recorded update whose application
// time has arrived (the UPDATE internal action of Figure 3).
func (r *LS) applyDue(now simtime.Time) {
	if u, ok := r.updates.apply(now); ok {
		r.cur = u
	}
}

// Snapshot is a copy of one register — the update behind its value and every
// update received but not yet applied — which a replacement node restores
// from a live peer.
type Snapshot struct {
	Cur     Update
	Pending []Update
}

// Snapshot copies the register's state, its pending updates in time order;
// like every method, it belongs to the goroutine that runs the algorithm's
// callbacks.
func (r *LS) Snapshot() Snapshot {
	return Snapshot{Cur: r.cur, Pending: append([]Update{}, r.updates...)}
}

// Restore merges a peer's snapshot into a register that lost its state and
// has since recorded only the updates it received itself: the later of the
// two values stands, own updates no later than it go (the peer had applied
// them, or one that beat them), and the snapshot's pending updates join the
// rest under OnMessage's largest-sender rule, applied on the algorithm's own
// schedule.
func (r *LS) Restore(s Snapshot) {
	if s.Cur.At > r.cur.At || s.Cur.At == r.cur.At && s.Cur.By > r.cur.By {
		r.cur = s.Cur
	}
	r.updates.apply(r.cur.At) // drops them; the value stays the later one
	for _, u := range s.Pending {
		if u.At.After(r.cur.At) {
			r.updates.put(u)
		}
	}
}

// Costs returns the paper's analytical read and write time complexities
// for these parameters: Lemma 6.1 for L (extra = 0), Lemma 6.2 for S
// (extra = 2ε).
func (r *LS) Costs() (read, write simtime.Duration) {
	return r.extraRead + r.p.C + r.p.Delta, r.p.D2 - r.p.C
}
