package core

import (
	"fmt"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Stamped pairs an action with the algorithm-visible time at which it was
// performed. In the timed model that time equals real time; in the clock
// and MMT models it is a clock value — the raw material of the γ'_α
// sequence of Definition 4.2.
type Stamped struct {
	Act ta.Action
	At  simtime.Time
}

// appendActs strips the stamps from ss onto buf. Nodes keep one action
// buffer and refill it per call; the executor copies returned slices before
// re-entering the component (see the ta.Automaton contract).
func appendActs(buf []ta.Action, ss []Stamped) []ta.Action {
	for _, s := range ss {
		buf = append(buf, s.Act)
	}
	return buf
}

// TimedNode runs an Algorithm in the timed-automaton programming model of
// §3: the algorithm sees exact real time and its timers fire at exactly the
// requested instants. This is the model algorithms are designed and proved
// in; the clock and MMT adapters run the same algorithm in harsher worlds.
type TimedNode struct {
	name string
	id   ta.NodeID
	eng  *engine
	out  []ta.Action // reusable return buffer
}

var _ ta.Automaton = (*TimedNode)(nil)

// NewTimedNode returns the node automaton A_i for node id of an n-node
// system running alg.
func NewTimedNode(id ta.NodeID, n int, alg Algorithm) *TimedNode {
	return &TimedNode{
		name: fmt.Sprintf("node(%v)", id),
		id:   id,
		eng:  newEngine(id, n, alg),
	}
}

// Name implements ta.Automaton.
func (tn *TimedNode) Name() string { return tn.name }

// ID returns the node's identity.
func (tn *TimedNode) ID() ta.NodeID { return tn.id }

// RestrictNeighbors limits this node's outgoing edges to ns (the graph
// topology of §2.4; the default is the complete graph with self-loops).
// Call before the system runs.
func (tn *TimedNode) RestrictNeighbors(ns []ta.NodeID) { tn.eng.restrict(ns) }

// Matches reports whether a is an input of this node: a message delivery
// from the network or an environment invocation partitioned at this node.
func (tn *TimedNode) Matches(a ta.Action) bool {
	if a.Name == ta.NameRecvMsg {
		return a.Node == tn.id
	}
	return a.Node == tn.id && a.Kind == ta.KindInput && !a.IsMessage()
}

// Init implements ta.Automaton.
func (tn *TimedNode) Init() []ta.Action {
	tn.out = appendActs(tn.out[:0], tn.eng.start(0))
	return tn.out
}

// Deliver implements ta.Automaton.
func (tn *TimedNode) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !tn.Matches(a) {
		return nil
	}
	// Fire any timers due at this same instant first, so the algorithm's
	// state is current before the input applies.
	out := tn.eng.advance(now)
	if a.Name == ta.NameRecvMsg {
		msg, ok := a.Payload.(ta.Msg)
		if !ok {
			panic(fmt.Sprintf("core: RECVMSG payload %T is not ta.Msg", a.Payload))
		}
		out = append(out, tn.eng.message(now, a.Peer, msg.Body)...)
	} else {
		out = append(out, tn.eng.input(now, a.Name, a.Payload)...)
	}
	tn.out = appendActs(tn.out[:0], out)
	return tn.out
}

// Due implements ta.Automaton: the earliest pending timer.
func (tn *TimedNode) Due(simtime.Time) (simtime.Time, bool) {
	return tn.eng.nextTimer()
}

// Fire implements ta.Automaton.
func (tn *TimedNode) Fire(now simtime.Time) []ta.Action {
	tn.out = appendActs(tn.out[:0], tn.eng.advance(now))
	return tn.out
}
