// Package core implements the paper's primary contribution: the
// transformations that take a distributed algorithm written against perfect
// real time (the timed-automaton programming model of §3) and run it,
// unchanged, in progressively more realistic systems:
//
//   - C(A, ε) — the clock-automaton wrapper of Definition 4.1, which feeds
//     the algorithm its node's ε-accurate clock instead of real time,
//     together with the send buffer S_ij,ε and receive buffer R_ji,ε of
//     Figure 2 that tag outgoing messages with the sending clock and hold
//     incoming messages until the local clock reaches the tag. By
//     Theorem 4.7 the resulting system solves P_ε on links [d1, d2]
//     whenever the original solves P on links [max(d1−2ε,0), d2+2ε].
//
//   - M(A^c, ε, ℓ) — the MMT wrapper of Definition 5.1, which adds finite
//     step time: the node acts only at step opportunities at most ℓ apart,
//     learns the clock only through discrete TICK(c) events, simulates the
//     clock automaton by catching up at every step, and drains outputs one
//     per step through a pending queue. By Theorems 5.1/5.2 the resulting
//     system solves (P_ε)^(kℓ+2ε+3ℓ).
//
// Algorithms implement the Algorithm interface once; the builders in
// system.go assemble the full distributed systems D_T, D_C and D_M.
package core

import (
	"fmt"
	"sort"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Context is the runtime interface an algorithm sees during a callback. In
// the timed-automaton model Time is real time; in the clock and MMT models
// it is the node's clock — the algorithm cannot tell the difference, which
// is exactly the ε-time-independence requirement of Definition 2.6.
//
// Context methods are only valid for the duration of the callback.
type Context interface {
	// Time returns the current time as visible to the algorithm.
	Time() simtime.Time
	// ID returns this node's identity.
	ID() ta.NodeID
	// N returns the number of nodes in the system.
	N() int
	// Send transmits body to node `to` over the link (SENDMSG). Sends to
	// the node itself travel over the self-loop edge e_ii like any other.
	// Sending to a node with no edge e_{i,to} panics: the §3.1 signature
	// restriction (all communication uses the edges in E).
	Send(to ta.NodeID, body any)
	// Broadcast sends body to every neighbor (every j with e_{i,j} ∈ E);
	// on the default complete graph that is every node including the
	// sender.
	Broadcast(body any)
	// Neighbors returns the nodes this node has outgoing edges to, in
	// ascending order. The returned slice is the caller's to keep.
	Neighbors() []ta.NodeID
	// Output performs a visible output action (e.g. a RETURN or ACK
	// response to the environment).
	Output(name string, payload any)
	// SetTimer requests an OnTimer(key) callback when Time() reaches at.
	// Callbacks arrive in (at, registration) order; in the clock and MMT
	// models the observed Time() may exceed at (clock jumps and step
	// granularity can pass a value without stopping on it, §1, §5).
	SetTimer(at simtime.Time, key any)
}

// Algorithm is a distributed algorithm written in the simple programming
// model of §3: full access to (what it believes is) the current time, and
// point-to-point messaging. Implementations must be deterministic and must
// interact with the world only through the Context.
type Algorithm interface {
	// Start runs once at time zero.
	Start(ctx Context)
	// OnInput handles an environment invocation at this node.
	OnInput(ctx Context, name string, payload any)
	// OnMessage handles a message delivered from node `from`.
	OnMessage(ctx Context, from ta.NodeID, body any)
	// OnTimer handles a timer previously registered with SetTimer.
	OnTimer(ctx Context, key any)
}

// AlgorithmFactory builds the algorithm instance for each node: the mapping
// A assigning an automaton to every node of the graph (§3.3).
type AlgorithmFactory func(id ta.NodeID, n int) Algorithm

// engine drives one Algorithm synchronously: the enclosing model adapter
// (timed node, clock node, or MMT wrapper) tells it what time it is and
// what arrived, and collects the actions the algorithm performed. The
// engine implements Context during callbacks.
type engine struct {
	id  ta.NodeID
	n   int
	alg Algorithm

	// neighbors restricts the outgoing edges (nil means the complete
	// graph including the self-loop).
	neighbors []ta.NodeID

	timers simtime.Queue

	// last is the high-water mark of observed time, keeping the
	// algorithm's view monotone across catch-ups.
	last simtime.Time

	// callback state. out is the per-callback action buffer and acc the
	// per-advance accumulation buffer; both are reused across calls, so a
	// returned slice is valid only until the next call into the engine —
	// every adapter copies it out immediately (see appendActs and the
	// emit/pend methods).
	now simtime.Time
	out []Stamped
	acc []Stamped
}

var _ Context = (*engine)(nil)

func newEngine(id ta.NodeID, n int, alg Algorithm) *engine {
	return &engine{id: id, n: n, alg: alg}
}

// Context implementation.

func (e *engine) Time() simtime.Time { return e.now }
func (e *engine) ID() ta.NodeID      { return e.id }
func (e *engine) N() int             { return e.n }

func (e *engine) restrict(ns []ta.NodeID) {
	sorted := make([]ta.NodeID, len(ns))
	copy(sorted, ns)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	e.neighbors = sorted
}

func (e *engine) isNeighbor(to ta.NodeID) bool {
	if e.neighbors == nil {
		return to >= 0 && int(to) < e.n
	}
	for _, nb := range e.neighbors {
		if nb == to {
			return true
		}
	}
	return false
}

func (e *engine) Neighbors() []ta.NodeID {
	if e.neighbors != nil {
		out := make([]ta.NodeID, len(e.neighbors))
		copy(out, e.neighbors)
		return out
	}
	out := make([]ta.NodeID, e.n)
	for i := range out {
		out[i] = ta.NodeID(i)
	}
	return out
}

func (e *engine) Send(to ta.NodeID, body any) {
	if !e.isNeighbor(to) {
		panic(fmt.Sprintf("core: node %v sent to %v with no edge e_{%v,%v} (§3.1 signature restriction)", e.id, to, e.id, to))
	}
	e.out = append(e.out, Stamped{At: e.now, Act: ta.Action{
		Name:    ta.NameSendMsg,
		Node:    e.id,
		Peer:    to,
		Kind:    ta.KindOutput,
		Payload: ta.Msg{Body: body},
	}})
}

func (e *engine) Broadcast(body any) {
	// Iterate the neighbor set directly: Neighbors() copies, and a
	// broadcast per operation made that copy a measurable share of the
	// executor's allocations.
	if e.neighbors != nil {
		for _, j := range e.neighbors {
			e.Send(j, body)
		}
		return
	}
	for j := 0; j < e.n; j++ {
		e.Send(ta.NodeID(j), body)
	}
}

func (e *engine) Output(name string, payload any) {
	e.out = append(e.out, Stamped{At: e.now, Act: ta.Action{
		Name:    name,
		Node:    e.id,
		Peer:    ta.NoNode,
		Kind:    ta.KindOutput,
		Payload: payload,
	}})
}

func (e *engine) SetTimer(at simtime.Time, key any) {
	e.timers.Push(at, key)
}

// run invokes fn with the context set to time t and returns the actions the
// callback performed. The returned slice is the engine's reusable buffer:
// it is valid only until the next call into the engine.
func (e *engine) run(t simtime.Time, fn func()) []Stamped {
	if t.Before(e.last) {
		t = e.last
	}
	e.last = t
	e.now = t
	e.out = e.out[:0]
	fn()
	return e.out
}

// start delivers the Start callback at time t.
func (e *engine) start(t simtime.Time) []Stamped {
	return e.run(t, func() { e.alg.Start(e) })
}

// input delivers an environment invocation at time t.
func (e *engine) input(t simtime.Time, name string, payload any) []Stamped {
	return e.run(t, func() { e.alg.OnInput(e, name, payload) })
}

// message delivers a network message at time t.
func (e *engine) message(t simtime.Time, from ta.NodeID, body any) []Stamped {
	return e.run(t, func() { e.alg.OnMessage(e, from, body) })
}

// nextTimer returns the earliest pending timer deadline.
func (e *engine) nextTimer() (simtime.Time, bool) {
	return e.timers.Next()
}

// advance fires, in (deadline, registration) order, every timer with
// deadline ≤ t. Each callback observes Time() equal to its own deadline
// (clamped monotone): even when the enclosing model reaches the deadline
// late — a steep clock segment stepping over the value, or an MMT catch-up
// replaying a whole fragment — the simulated clock automaton performed the
// action exactly at its scheduled clock value, and the tags on any messages
// it sends must say so (Definition 5.1's frag semantics). A callback may
// register further timers with deadline ≤ t; those fire in the same
// advance. It returns the actions performed, in the engine's reusable
// accumulation buffer — valid only until the next advance.
func (e *engine) advance(t simtime.Time) []Stamped {
	e.acc = e.acc[:0]
	for {
		at, ok := e.timers.Next()
		if !ok || at.After(t) {
			break
		}
		entry := e.timers.Pop()
		e.acc = append(e.acc, e.run(entry.At, func() { e.alg.OnTimer(e, entry.Key) })...)
	}
	return e.acc
}
