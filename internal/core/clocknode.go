package core

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// ClockStamp records one node action with both of its times: the real time
// at which it occurred in the execution and the clock value the node
// associated with it. The sequence of (action, clock) pairs is exactly the
// γ'_α timed sequence of Definition 4.2, from which the simulation proof of
// Theorem 4.6 constructs the corresponding timed-model execution;
// experiment E5 replays that construction on recorded data.
type ClockStamp struct {
	Action ta.Action
	Real   simtime.Time
	Clock  simtime.Time
}

// Skew returns Clock − Real for this action; Theorem 4.6 guarantees
// |Skew| ≤ ε.
func (s ClockStamp) Skew() simtime.Duration { return simtime.Duration(s.Clock - s.Real) }

// ClockNode runs an Algorithm in the clock-automaton distributed system
// model of §4: the node automaton A^c_{i,ε}, i.e. the composition of
// C(A_i, ε) with its send and receive buffers, attached to a clock
// satisfying C_ε. The algorithm's timers are interpreted as clock
// deadlines: a timer at clock value T fires at the earliest real time the
// node's clock reaches T.
type ClockNode struct {
	name  string
	id    ta.NodeID
	inner *Composite
	clk   clock.Model

	stamps []ClockStamp
	out    []ta.Action // reusable return buffer

	// dueClock is the last clock deadline Due translated and dueReal the
	// real time the clock's inverse gave for it, valid once dueOk is set.
	dueClock, dueReal simtime.Time
	dueOk             bool

	// RecordStamps controls γ'_α collection (on by default; disable for
	// long throughput runs).
	RecordStamps bool
}

var _ ta.Automaton = (*ClockNode)(nil)

// NewClockNode returns the clock-model node automaton for node id of an
// n-node system running alg against clk.
func NewClockNode(id ta.NodeID, n int, alg Algorithm, clk clock.Model) *ClockNode {
	return &ClockNode{
		name:         fmt.Sprintf("cnode(%v)", id),
		id:           id,
		inner:        NewComposite(id, n, alg),
		clk:          clk,
		RecordStamps: true,
	}
}

// Name implements ta.Automaton.
func (cn *ClockNode) Name() string { return cn.name }

// RestrictNeighbors limits this node's outgoing edges to ns (§2.4
// topology). Call before the system runs.
func (cn *ClockNode) RestrictNeighbors(ns []ta.NodeID) { cn.inner.eng.restrict(ns) }

// Stamps returns the recorded γ'_α sequence for this node.
func (cn *ClockNode) Stamps() []ClockStamp { return cn.stamps }

// BufferStats reports receive-buffer activity: messages held, messages
// received, and the maximum clock-time hold (experiment E7).
func (cn *ClockNode) BufferStats() (buffered, received int, heldMax simtime.Duration) {
	return cn.inner.BufferStats()
}

// Matches reports whether a is an input of this node: an ERECVMSG from a
// clock-model edge or an environment invocation partitioned here.
func (cn *ClockNode) Matches(a ta.Action) bool {
	if a.Name == ta.NameERecvMsg {
		return a.Node == cn.id
	}
	return a.Node == cn.id && a.Kind == ta.KindInput && !a.IsMessage()
}

// emit converts stamped inner actions to the composed system's actions,
// recording γ'_α entries along the way.
func (cn *ClockNode) emit(now simtime.Time, ss []Stamped) []ta.Action {
	if len(ss) == 0 {
		return nil
	}
	out := cn.out[:0]
	for _, s := range ss {
		out = append(out, s.Act)
		if cn.RecordStamps {
			cn.stamps = append(cn.stamps, ClockStamp{Action: s.Act, Real: now, Clock: s.At})
		}
	}
	cn.out = out
	return out
}

// stampInput records the γ'_α entry for an input action delivered to this
// node (inputs are actions of the node's partition too).
func (cn *ClockNode) stampInput(now simtime.Time, c simtime.Time, a ta.Action) {
	if cn.RecordStamps {
		cn.stamps = append(cn.stamps, ClockStamp{Action: a, Real: now, Clock: c})
	}
}

// Init implements ta.Automaton.
func (cn *ClockNode) Init() []ta.Action {
	return cn.emit(0, cn.inner.Start(0))
}

// Deliver implements ta.Automaton.
func (cn *ClockNode) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !cn.Matches(a) {
		return nil
	}
	c := cn.clk.At(now)
	if a.Name == ta.NameERecvMsg {
		tm, ok := a.Payload.(ta.TaggedMsg)
		if !ok {
			panic(fmt.Sprintf("core: ERECVMSG payload %T is not ta.TaggedMsg", a.Payload))
		}
		cn.stampInput(now, c, a)
		return cn.emit(now, cn.inner.Receive(c, a.Peer, tm))
	}
	cn.stampInput(now, c, a)
	return cn.emit(now, cn.inner.Input(c, a.Name, a.Payload))
}

// Due implements ta.Automaton: the composite's next clock deadline,
// translated to real time through the clock's inverse. The clock model is
// a deterministic function, so a deadline is translated once and the
// answer reused until the composite's deadline changes.
func (cn *ClockNode) Due(simtime.Time) (simtime.Time, bool) {
	c, ok := cn.inner.NextDue()
	if !ok {
		return 0, false
	}
	if !cn.dueOk || c != cn.dueClock {
		cn.dueClock, cn.dueReal, cn.dueOk = c, cn.clk.EarliestAt(c), true
	}
	return cn.dueReal, true
}

// Fire implements ta.Automaton.
func (cn *ClockNode) Fire(now simtime.Time) []ta.Action {
	return cn.emit(now, cn.inner.Advance(cn.clk.At(now)))
}
