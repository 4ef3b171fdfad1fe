package core

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Standalone, literal transcriptions of the Figure 2 buffer automata.
//
// In the assembled systems (BuildClocked / BuildMMT) the buffers are
// folded into the node composite (Composite) for efficiency; these
// component versions exist to demonstrate the paper's actual composition
// A^c_{i,ε} = C(A_i,ε) × S_ij,ε × R_ji,ε and to differentially test the
// folded implementation against the literal one (see buffers_test.go).

// SendBufferAutomaton is S_ij,ε (Figure 2, left): it receives SENDMSG and
// forwards ESENDMSG tagged with the clock value at which the message was
// sent. The figure's ν precondition ("no (m,c) in q with c < clock+Δc")
// forbids the clock advancing past an unsent tag, which operationally
// means the forward happens at the same instant as the send — so Deliver
// emits synchronously and the queue is always empty between instants.
type SendBufferAutomaton struct {
	name     string
	from, to ta.NodeID
	clk      clock.Model
}

var _ ta.Automaton = (*SendBufferAutomaton)(nil)

// NewSendBuffer returns S_ij,ε for the edge from→to using the sender's
// clock.
func NewSendBuffer(from, to ta.NodeID, clk clock.Model) *SendBufferAutomaton {
	return &SendBufferAutomaton{
		name: fmt.Sprintf("sendbuf(%v->%v)", from, to),
		from: from,
		to:   to,
		clk:  clk,
	}
}

// Name implements ta.Automaton.
func (sb *SendBufferAutomaton) Name() string { return sb.name }

// Init implements ta.Automaton.
func (sb *SendBufferAutomaton) Init() []ta.Action { return nil }

// Matches reports whether a is this buffer's SENDMSG input.
func (sb *SendBufferAutomaton) Matches(a ta.Action) bool {
	return a.Name == ta.NameSendMsg && a.Node == sb.from && a.Peer == sb.to
}

// Deliver implements ta.Automaton: enqu + immediate ESENDMSG (the
// "c = clock" precondition satisfied at the same instant).
func (sb *SendBufferAutomaton) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !sb.Matches(a) {
		return nil
	}
	msg, ok := a.Payload.(ta.Msg)
	if !ok {
		panic(fmt.Sprintf("core: SENDMSG payload %T is not ta.Msg", a.Payload))
	}
	return []ta.Action{{
		Name:    ta.NameESendMsg,
		Node:    sb.from,
		Peer:    sb.to,
		Kind:    ta.KindOutput,
		Payload: ta.TaggedMsg{Body: msg.Body, SentClock: sb.clk.At(now)},
	}}
}

// Due implements ta.Automaton (the queue drains synchronously).
func (sb *SendBufferAutomaton) Due(simtime.Time) (simtime.Time, bool) { return 0, false }

// Fire implements ta.Automaton.
func (sb *SendBufferAutomaton) Fire(simtime.Time) []ta.Action { return nil }

// RecvBufferAutomaton is R_ji,ε (Figure 2, right): a FIFO queue of (m, c)
// pairs whose front is released as RECVMSG once the local clock reaches
// its tag. Because the standard edges already emit ERECVMSG and the
// standard nodes already consume it, composing this standalone buffer
// requires renaming one side of the interface (ta.Rename); the
// differential test does exactly that.
type RecvBufferAutomaton struct {
	name     string
	from, to ta.NodeID
	clk      clock.Model
	inName   string
	q        []ta.TaggedMsg
}

var _ ta.Automaton = (*RecvBufferAutomaton)(nil)

// NewRecvBuffer returns R_ji,ε for messages from `from` arriving at `to`,
// gated by the receiver's clock. inName is the action name the raw
// network deliveries carry (the renamed edge output).
func NewRecvBuffer(from, to ta.NodeID, clk clock.Model, inName string) *RecvBufferAutomaton {
	return &RecvBufferAutomaton{
		name:   fmt.Sprintf("recvbuf(%v->%v)", from, to),
		from:   from,
		to:     to,
		clk:    clk,
		inName: inName,
	}
}

// Name implements ta.Automaton.
func (rb *RecvBufferAutomaton) Name() string { return rb.name }

// Init implements ta.Automaton.
func (rb *RecvBufferAutomaton) Init() []ta.Action { return nil }

// Matches reports whether a is this buffer's input.
func (rb *RecvBufferAutomaton) Matches(a ta.Action) bool {
	return a.Name == rb.inName && a.Node == rb.to && a.Peer == rb.from
}

// Deliver implements ta.Automaton: enqueue, then release any deliverable
// prefix at this instant.
func (rb *RecvBufferAutomaton) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if !rb.Matches(a) {
		return nil
	}
	tm, ok := a.Payload.(ta.TaggedMsg)
	if !ok {
		panic(fmt.Sprintf("core: %s payload %T is not ta.TaggedMsg", rb.inName, a.Payload))
	}
	rb.q = append(rb.q, tm)
	return rb.release(now)
}

// release emits ERECVMSG for every front whose tag the clock has reached.
func (rb *RecvBufferAutomaton) release(now simtime.Time) []ta.Action {
	c := rb.clk.At(now)
	var out []ta.Action
	for len(rb.q) > 0 && !rb.q[0].SentClock.After(c) {
		tm := rb.q[0]
		rb.q = rb.q[1:]
		out = append(out, ta.Action{
			Name:    ta.NameERecvMsg,
			Node:    rb.to,
			Peer:    rb.from,
			Kind:    ta.KindOutput,
			Payload: tm,
		})
	}
	return out
}

// Due implements ta.Automaton: the earliest real time the front becomes
// deliverable.
func (rb *RecvBufferAutomaton) Due(simtime.Time) (simtime.Time, bool) {
	if len(rb.q) == 0 {
		return 0, false
	}
	return rb.clk.EarliestAt(rb.q[0].SentClock), true
}

// Fire implements ta.Automaton.
func (rb *RecvBufferAutomaton) Fire(now simtime.Time) []ta.Action {
	return rb.release(now)
}

// Held returns the queue length, for tests.
func (rb *RecvBufferAutomaton) Held() int { return len(rb.q) }
