package core

import (
	"fmt"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Composite is the clock-value-driven composite A^c_{i,ε} of §4.2: the
// wrapped algorithm C(A_i, ε) together with the send buffers S_ij,ε and
// receive buffers R_ji,ε of Figure 2, with the SENDMSG/RECVMSG interface
// between them hidden inside.
//
// The composite is ε-time independent by construction (Definition 2.6): it
// is driven exclusively by clock values, never by real time. Three outer
// adapters drive it: ClockNode (clock model, §4), which converts between
// real time and clock time using the node's clock.Model; MMTNode (MMT
// model, §5), which drives it by the last TICK value during catch-up; and
// the live runtime's node, which drives one composite per register
// instance by its wall-clock reading.
//
// The send buffer's behavior — tag each outgoing message with the clock
// value at which it was sent, before any clock passage (the "c = clock"
// precondition of Figure 2) — is realized by tagging with the stamped
// emission time. The receive buffer is literal: one FIFO queue per incoming
// edge whose front is deliverable only once the local clock reaches its
// tag.
type Composite struct {
	id  ta.NodeID
	n   int
	eng *engine

	// queues[j] is R_ji,ε's queue q_ji, in arrival order, for each sender j
	// in 0..n-1. Only the front is ever inspected (head-of-line blocking,
	// exactly as in Figure 2).
	queues [][]ta.TaggedMsg

	// noBuffer disables the receive buffer (the §7.2 ablation): messages
	// are delivered immediately regardless of their tag. With d1 ≥ 2ε this
	// changes nothing; with d1 < 2ε it breaks the simulation, which
	// experiment E9 demonstrates.
	noBuffer bool

	// buffered / heldMax track how much work the receive buffer actually
	// did, for experiment E7.
	buffered     int
	received     int
	heldClockMax simtime.Duration

	// acc is the reusable output buffer: every public method returns a
	// slice of it, valid only until the next call into the composite. The
	// outer adapters (ClockNode.emit, MMTNode.pend, the live node's emit)
	// copy it out immediately.
	acc []Stamped
}

// NewComposite returns the composite for node id of an n-node system
// running alg.
func NewComposite(id ta.NodeID, n int, alg Algorithm) *Composite {
	return &Composite{
		id:     id,
		n:      n,
		eng:    newEngine(id, n, alg),
		queues: make([][]ta.TaggedMsg, n),
	}
}

// Algorithm returns the algorithm the composite wraps.
func (ci *Composite) Algorithm() Algorithm { return ci.eng.alg }

// process appends the engine's raw outputs to ci.acc, converted into the
// composite's outputs: every SENDMSG is accompanied by the tagged ESENDMSG
// that S_ij,ε forwards to the clock-model edge at the same instant. ss is
// the engine's reusable buffer; the values are copied here before the next
// engine call.
func (ci *Composite) process(ss []Stamped) {
	for _, s := range ss {
		ci.acc = append(ci.acc, s)
		if s.Act.Name == ta.NameSendMsg {
			msg, ok := s.Act.Payload.(ta.Msg)
			if !ok {
				panic(fmt.Sprintf("core: SENDMSG payload %T is not ta.Msg", s.Act.Payload))
			}
			ci.acc = append(ci.acc, Stamped{
				At: s.At,
				Act: ta.Action{
					Name:    ta.NameESendMsg,
					Node:    s.Act.Node,
					Peer:    s.Act.Peer,
					Kind:    ta.KindOutput,
					Payload: ta.TaggedMsg{Body: msg.Body, SentClock: s.At},
				},
			})
		}
	}
}

// Start runs the algorithm's Start at clock value c.
func (ci *Composite) Start(c simtime.Time) []Stamped {
	ci.acc = ci.acc[:0]
	ci.process(ci.eng.start(c))
	return ci.acc
}

// NextDue returns the earliest clock value at which the composite has work:
// a timer deadline of C(A,ε) or a releasable front of some R_ji queue.
func (ci *Composite) NextDue() (simtime.Time, bool) {
	due, ok := ci.eng.nextTimer()
	for _, q := range ci.queues {
		if len(q) == 0 {
			continue
		}
		if !ok || q[0].SentClock.Before(due) {
			due, ok = q[0].SentClock, true
		}
	}
	return due, ok
}

// Advance brings the composite up to clock value c, interleaving timer
// firings and buffer releases in clock order, each performed at its own
// clock value. This is both the ClockNode steady-state step and the MMT
// catch-up fragment (Definition 5.1's frag).
func (ci *Composite) Advance(c simtime.Time) []Stamped {
	ci.acc = ci.acc[:0]
	ci.advanceInto(c)
	return ci.acc
}

// advanceInto is Advance appending to ci.acc without resetting it.
func (ci *Composite) advanceInto(c simtime.Time) {
	for {
		// Earliest buffer release among queue fronts.
		var (
			relFrom ta.NodeID
			relAt   simtime.Time
			relOK   bool
		)
		for j, q := range ci.queues {
			if len(q) == 0 {
				continue
			}
			if !relOK || q[0].SentClock.Before(relAt) {
				relFrom, relAt, relOK = ta.NodeID(j), q[0].SentClock, true
			}
		}
		timerAt, timerOK := ci.eng.nextTimer()

		switch {
		case relOK && !relAt.After(c) && (!timerOK || !relAt.After(timerAt)):
			// Release the buffered message at its tag's clock value
			// (buffer releases win ties against timers).
			q := ci.queues[relFrom]
			tm := q[0]
			ci.queues[relFrom] = q[1:]
			ci.deliverMsg(relAt, relFrom, tm)
		case timerOK && !timerAt.After(c):
			ci.process(ci.eng.advance(timerAt))
		default:
			return
		}
	}
}

// deliverMsg hands a message to the algorithm at clock value c, appending
// to ci.acc the node-internal RECVMSG action R_ji performs and whatever
// the algorithm does in response.
func (ci *Composite) deliverMsg(c simtime.Time, from ta.NodeID, tm ta.TaggedMsg) {
	ci.acc = append(ci.acc, Stamped{
		At: c,
		Act: ta.Action{
			Name:    ta.NameRecvMsg,
			Node:    ci.id,
			Peer:    from,
			Kind:    ta.KindOutput,
			Payload: ta.Msg{Body: tm.Body},
		},
	})
	ci.process(ci.eng.message(c, from, tm.Body))
}

// Receive handles an ERECVMSG from the clock-model edge at clock value c:
// the R_ji,ε effect. The message is delivered immediately if its queue is
// empty and its tag has been reached, and buffered otherwise. The composite
// is caught up to c first, so the algorithm state is current. A sender
// outside 0..n-1 has no R_ji,ε and panics.
func (ci *Composite) Receive(c simtime.Time, from ta.NodeID, tm ta.TaggedMsg) []Stamped {
	if from < 0 || int(from) >= ci.n {
		panic(fmt.Sprintf("core: node %d received a message from sender %d, outside 0..%d", ci.id, from, ci.n-1))
	}
	ci.acc = ci.acc[:0]
	ci.advanceInto(c)
	ci.received++
	if ci.noBuffer {
		// Ablation: deliver at the current clock even when that is less
		// than the sending clock — the situation the buffer exists to
		// prevent (§4, Lamport's observation).
		ci.deliverMsg(c, from, tm)
		return ci.acc
	}
	if len(ci.queues[from]) == 0 && !tm.SentClock.After(c) {
		ci.deliverMsg(c, from, tm)
		return ci.acc
	}
	ci.buffered++
	if held := simtime.Duration(tm.SentClock - c); held > ci.heldClockMax {
		ci.heldClockMax = held
	}
	ci.queues[from] = append(ci.queues[from], tm)
	return ci.acc
}

// Input handles an environment invocation at clock value c, catching up
// first.
func (ci *Composite) Input(c simtime.Time, name string, payload any) []Stamped {
	ci.acc = ci.acc[:0]
	ci.advanceInto(c)
	ci.process(ci.eng.input(c, name, payload))
	return ci.acc
}

// BufferStats returns how many received messages had to be held, the total
// received, and the maximum clock-time hold.
func (ci *Composite) BufferStats() (buffered, received int, heldMax simtime.Duration) {
	return ci.buffered, ci.received, ci.heldClockMax
}
