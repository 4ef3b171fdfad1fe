package live

import (
	"encoding/gob"
	"fmt"
	"strings"

	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Recovery by state transfer (DESIGN.md § 5a, Recovery): a replacement node
// starts with empty registers and copies a live peer's. Every UPDATE reaches
// every node within d2 of being sent, so from the instant W at which every
// live peer's re-dialled link has reached the replacement (its linkUp), what
// a peer has still not received d2 later was sent after W, and the
// replacement received that itself: a peer's registers copied W + d2 + 2ε
// later on the replacement's clock (it may lag real time by ε at W and lead
// it by ε at the end), merged with its own, are complete. All of it runs on
// the node loops, the only goroutines that touch algorithm state.

// ctlChan is the Frame.Chan of control frames: no algorithm sees them and the
// [d1, d2] delay measurement skips them.
const ctlChan = -1

type (
	linkUp        struct{}            // the first frame on every inter-node connection
	transferReq   struct{ ID uint32 } // ID returns on the reply: one to a request given up on is ignored
	transferReply struct {
		ID      uint32
		Refused bool // the peer is itself a replacement that has not restored
		Regs    map[int]register.Snapshot
	}
	transferTimer struct{ id uint32 } // node-internal timer key of a recovery's waits
)

func init() {
	gob.Register(linkUp{})
	gob.Register(transferReq{})
	gob.Register(transferReply{})
}

// Transfer is Recover's outcome: W and the instant the copy was applied on the
// node's clock, the peer that served it and how many pending updates came
// with it — or why no peer did.
type Transfer struct {
	Wired, Applied simtime.Time
	From           ta.NodeID
	Updates        int
	Err            error
}

// recovery is one Recover call's state, owned by the node loop.
type recovery struct {
	peers []ta.NodeID
	wait  simtime.Duration
	next  int    // peers[next] is asked next
	id    uint32 // the wait or request outstanding; 0 until wired
	wired simtime.Time
	why   []string
	done  chan Transfer
}

// Recovering marks the hosted nodes replacements that have lost their state:
// each refuses transfer requests until a Recover has restored it. Call
// before Start.
func (rt *Runtime) Recovering() { rt.amnesic = true }

// Recover restores node's registers from one of peers: wait
// (Model.TransferWait) on the node's clock after the last of them has linked
// they are asked in order, and the first to answer with its state — not a
// refusal, not two waits (a round trip) of silence — serves it. A later call
// for the node abandons one still in progress. Call after Start: before it,
// or at a node this runtime does not host, the answer is an error.
func (rt *Runtime) Recover(node ta.NodeID, peers []ta.NodeID, wait simtime.Duration) <-chan Transfer {
	done := make(chan Transfer, 1)
	if int(node) < 0 || int(node) >= len(rt.nodes) || rt.nodes[node] == nil {
		done <- Transfer{Err: fmt.Errorf("live: recover at unknown node %v", node)}
		return done
	}
	select {
	case rt.nodes[node].inbox <- nodeMsg{rec: &recovery{peers: peers, wait: wait, done: done}}:
	case <-rt.stop:
		done <- Transfer{Err: fmt.Errorf("live: runtime stopped")}
	}
	return done
}

func (n *node) sendCtl(to ta.NodeID, body any) {
	_ = n.rt.transport.Send(Frame{From: n.id, To: to, Chan: ctlChan, SentReal: Since(n.rt.epoch), Body: body})
}

// wire starts the transfer wait once every peer of the recovery has linked:
// W is the latest of their linkUps.
func (n *node) wire() {
	r := n.rec
	if r == nil || r.id != 0 {
		return
	}
	for _, p := range r.peers {
		at, ok := n.linked[p]
		if !ok {
			return
		}
		r.wired = max(r.wired, at)
	}
	n.asks++
	r.id = n.asks
	n.timers.Push(r.wired.Add(r.wait), transferTimer{r.id})
}

// ask notes why the peer asked last, if any, did not serve and asks the next,
// or gives up when none is left. A transferTimer still current ends here: the
// wait after W, or the wait for an answer.
func (n *node) ask(why string) {
	r := n.rec
	if r.next > 0 {
		r.why = append(r.why, fmt.Sprintf("node %v %s", r.peers[r.next-1], why))
	}
	if r.next == len(r.peers) {
		n.rec = nil
		r.done <- Transfer{Wired: r.wired, Err: fmt.Errorf("no Ready peer served a snapshot (%s)", strings.Join(r.why, "; "))}
		return
	}
	n.asks++
	r.id = n.asks
	n.sendCtl(r.peers[r.next], transferReq{ID: r.id})
	r.next++
	n.timers.Push(n.clk.now().Add(2*r.wait), transferTimer{r.id})
}

// control handles a frame on ctlChan.
func (n *node) control(f Frame) {
	switch b := f.Body.(type) {
	case linkUp:
		n.linked[f.From] = n.clk.now()
		n.wire()
	case transferReq:
		reply := transferReply{ID: b.ID, Refused: n.amnesic, Regs: make(map[int]register.Snapshot)}
		for reg, alg := range n.algs {
			if ls, ok := alg.(*register.LS); ok && !n.amnesic {
				reply.Regs[reg] = ls.Snapshot()
			}
		}
		n.sendCtl(f.From, reply)
	case transferReply:
		r := n.rec
		if r == nil || r.id != b.ID {
			return
		}
		if b.Refused {
			n.ask("is itself recovering")
			return
		}
		out := Transfer{Wired: r.wired, Applied: n.clk.now(), From: f.From}
		for reg, alg := range n.algs {
			s, sent := b.Regs[reg]
			if ls, ok := alg.(*register.LS); ok && sent {
				ls.Restore(s)
				out.Updates += len(s.Pending)
			}
		}
		n.amnesic, n.rec = false, nil
		r.done <- out
	}
}
