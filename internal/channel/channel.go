// Package channel implements the edge automata of the paper's network
// substrate: E_{ij,[d1,d2]} (Figure 1) for the timed-automaton model and
// its renamed clock-model variant E^c_{ij,[d1,d2]} (§4.1) carrying
// clock-tagged messages.
//
// The paper's edge delivers each message nondeterministically at any real
// time in [t+d1, t+d2] and may reorder messages. Here that nondeterminism
// is resolved by a seeded DelayPolicy; the boundary adversaries (all-min,
// all-max, and spread, which maximizes reordering) are where the paper's
// bounds are tight.
package channel

import (
	"fmt"
	"math/rand"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// DelayPolicy resolves the per-message delay nondeterminism of the edge
// automaton: Delay must return a value inside iv.
type DelayPolicy interface {
	// Name describes the policy for reports.
	Name() string
	// Delay picks the next message's delay within iv using r.
	Delay(r *rand.Rand, iv simtime.Interval) simtime.Duration
}

type policyFunc struct {
	name string
	fn   func(r *rand.Rand, iv simtime.Interval) simtime.Duration
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Delay(r *rand.Rand, iv simtime.Interval) simtime.Duration {
	return p.fn(r, iv)
}

// MinDelay delivers every message at exactly d1.
func MinDelay() DelayPolicy {
	return policyFunc{name: "min", fn: func(_ *rand.Rand, iv simtime.Interval) simtime.Duration {
		return iv.Lo
	}}
}

// MaxDelay delivers every message at exactly d2.
func MaxDelay() DelayPolicy {
	return policyFunc{name: "max", fn: func(_ *rand.Rand, iv simtime.Interval) simtime.Duration {
		return iv.Hi
	}}
}

// UniformDelay picks delays uniformly in [d1, d2].
func UniformDelay() DelayPolicy {
	return policyFunc{name: "uniform", fn: func(r *rand.Rand, iv simtime.Interval) simtime.Duration {
		w := int64(iv.Width())
		if w == 0 {
			return iv.Lo
		}
		return iv.Lo + simtime.Duration(r.Int63n(w+1))
	}}
}

// SpreadDelay alternates between d1 and d2, the adversary that maximizes
// message reordering on a link.
func SpreadDelay() DelayPolicy {
	flip := false
	return policyFunc{name: "spread", fn: func(_ *rand.Rand, iv simtime.Interval) simtime.Duration {
		flip = !flip
		if flip {
			return iv.Hi
		}
		return iv.Lo
	}}
}

// BimodalDelay picks d1 with probability p and d2 otherwise: a bursty link.
func BimodalDelay(p float64) DelayPolicy {
	return policyFunc{name: fmt.Sprintf("bimodal(%.2f)", p), fn: func(r *rand.Rand, iv simtime.Interval) simtime.Duration {
		if r.Float64() < p {
			return iv.Lo
		}
		return iv.Hi
	}}
}

// Policies is the delay vocabulary of pscsim -delays, pscfuzz's draw and
// E6, in the order pscfuzz draws from.
var Policies = []struct {
	Name string
	New  func() DelayPolicy
}{
	{"min", MinDelay}, {"max", MaxDelay}, {"uniform", UniformDelay}, {"spread", SpreadDelay},
	{"bimodal", func() DelayPolicy { return BimodalDelay(0.3) }},
}

// Named returns the constructor of the Policies entry called name.
func Named(name string) (func() DelayPolicy, error) {
	for _, p := range Policies {
		if p.Name == name {
			return p.New, nil
		}
	}
	return nil, fmt.Errorf("unknown delay policy %q", name)
}

// Edge is the executable E_{ij,[d1,d2]} automaton. Its input is the send
// action for the link (SENDMSG in the TA model, ESENDMSG in the clock
// model) and its output the matching receive action. The zero value is not
// usable; construct with New or NewClock.
type Edge struct {
	name     string
	from, to ta.NodeID
	bounds   simtime.Interval
	policy   DelayPolicy
	rng      *rand.Rand
	sendName string
	recvName string
	// FIFO, when set, forbids reordering by never scheduling a delivery
	// before an earlier message's (footnote 4: the results hold for both).
	FIFO bool
	// Drop, when non-nil, is consulted per message (with its send ordinal
	// and the edge's seeded rng); true loses the message. The paper's
	// network is reliable — this is the faulty-channel adversary its §7.3
	// defers, used by experiment E12.
	Drop func(seq int, r *rand.Rand) bool
	// Dropped counts messages lost to Drop.
	Dropped int

	// pending holds the in-flight payloads by delivery instant, then send
	// order; seq is the send ordinal Drop sees.
	pending  simtime.Queue
	seq      int
	lastDue  simtime.Time
	nDropped int

	// Delivered counts messages handed to the receiver, for reports.
	Delivered int

	// out is the reusable Fire buffer; the executor copies returned slices
	// before the next call into this edge (see the ta.Automaton contract).
	out []ta.Action
}

var _ ta.Automaton = (*Edge)(nil)

// New returns the TA-model edge for link from→to with the given delay
// bounds, delay policy, and seed.
func New(from, to ta.NodeID, bounds simtime.Interval, policy DelayPolicy, seed int64) *Edge {
	return &Edge{
		name:     fmt.Sprintf("edge(%v->%v)", from, to),
		from:     from,
		to:       to,
		bounds:   bounds,
		policy:   policy,
		rng:      rand.New(rand.NewSource(seed)),
		sendName: ta.NameSendMsg,
		recvName: ta.NameRecvMsg,
	}
}

// NewClock returns the clock-model edge E^c: identical behavior, but it
// carries (m, c) pairs on the renamed ESENDMSG/ERECVMSG interface (§4.1).
func NewClock(from, to ta.NodeID, bounds simtime.Interval, policy DelayPolicy, seed int64) *Edge {
	e := New(from, to, bounds, policy, seed)
	e.name = fmt.Sprintf("cedge(%v->%v)", from, to)
	e.sendName = ta.NameESendMsg
	e.recvName = ta.NameERecvMsg
	return e
}

// Name implements ta.Automaton.
func (e *Edge) Name() string { return e.name }

// From returns the link's sending endpoint.
func (e *Edge) From() ta.NodeID { return e.from }

// To returns the link's receiving endpoint.
func (e *Edge) To() ta.NodeID { return e.to }

// Init implements ta.Automaton.
func (e *Edge) Init() []ta.Action { return nil }

// Matches reports whether a is this edge's send action.
func (e *Edge) Matches(a ta.Action) bool {
	return a.Name == e.sendName && a.Node == e.from && a.Peer == e.to
}

// Deliver implements ta.Automaton: a send action puts the message in
// flight with a policy-chosen delay.
func (e *Edge) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !e.Matches(a) {
		return nil
	}
	if e.Drop != nil && e.Drop(e.seq, e.rng) {
		e.seq++
		e.Dropped++
		return nil
	}
	d := e.policy.Delay(e.rng, e.bounds)
	if !e.bounds.Contains(d) {
		// A broken policy must not silently violate the link specification.
		d = e.bounds.Hi
		e.nDropped++
	}
	at := now.Add(d)
	if e.FIFO && at.Before(e.lastDue) {
		at = e.lastDue
	}
	e.lastDue = at
	e.pending.Push(at, a.Payload)
	e.seq++
	return nil
}

// Due implements ta.Automaton: the ν precondition of Figure 1 — time may
// not pass beyond the earliest t+d2 … here beyond the already-chosen
// delivery instant.
func (e *Edge) Due(simtime.Time) (simtime.Time, bool) { return e.pending.Next() }

// Fire implements ta.Automaton: deliver every message whose time has come.
// Same-instant deliveries drain as one batch into the reused out slice.
func (e *Edge) Fire(now simtime.Time) []ta.Action {
	out := e.out[:0]
	for at, ok := e.pending.Next(); ok && !at.After(now); at, ok = e.pending.Next() {
		e.Delivered++
		out = append(out, ta.Action{
			Name:    e.recvName,
			Node:    e.to,
			Peer:    e.from,
			Kind:    ta.KindOutput,
			Payload: e.pending.Pop().Key,
		})
	}
	e.out = out
	return out
}

// InFlight returns the number of undelivered messages.
func (e *Edge) InFlight() int { return e.pending.Len() }

// Bounds returns the edge's delay interval.
func (e *Edge) Bounds() simtime.Interval { return e.bounds }
