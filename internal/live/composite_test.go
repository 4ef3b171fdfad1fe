package live

import (
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// handed is one thing an instance was handed — a frame's body or a timer's
// key — and the Time() it was handed at.
type handed struct {
	What string
	At   simtime.Time
}

// handedAlg records what it is handed and when. On "first" it sets a timer
// 1 ms ahead.
type handedAlg struct{ got []handed }

func (a *handedAlg) Start(core.Context)                {}
func (a *handedAlg) OnInput(core.Context, string, any) {}

func (a *handedAlg) OnMessage(ctx core.Context, _ ta.NodeID, body any) {
	a.got = append(a.got, handed{body.(string), ctx.Time()})
	if body == "first" {
		ctx.SetTimer(ctx.Time().Add(ms), "timer")
	}
}

func (a *handedAlg) OnTimer(ctx core.Context, key any) {
	a.got = append(a.got, handed{key.(string), ctx.Time()})
}

// handedNode is a two-node runtime on perfect clocks whose node-0 instance
// is a handedAlg, on the driver. The tests put frames from node 1 straight
// on node 0's inbox (enqueueFrame), so what node 0 is handed, and in what
// order, depends on the node's own step alone.
type handedNode struct {
	t   *testing.T
	d   *simDriver
	alg *handedAlg
}

func startHanded(t *testing.T) *handedNode {
	t.Helper()
	alg := &handedAlg{}
	rt, err := New(Options{N: 2, Bounds: simModel.Bounds(), Clocks: clock.PerfectFactory()}, func(id ta.NodeID, _ int) core.Algorithm {
		if id == 0 {
			return alg
		}
		return &handedAlg{}
	})
	if err != nil {
		t.Fatal(err)
	}
	return &handedNode{t: t, d: newSimDriver(t, rt, simModel, 1), alg: alg}
}

// send puts a frame from node 1 tagged tag on node 0's inbox.
func (h *handedNode) send(tag simtime.Time, body string) {
	h.d.rt.enqueueFrame(Frame{From: 1, To: 0, SentClock: tag, SentReal: h.d.now, Body: body})
}

// take runs the driver until the instance has been handed k things in all,
// and returns them.
func (h *handedNode) take(k int) []handed {
	h.t.Helper()
	if !h.d.run(h.d.now.Add(simtime.Second), func() bool { return len(h.alg.got) >= k }) {
		h.t.Fatalf("handed only %v, want %d", h.alg.got, k)
	}
	return h.alg.got
}

// TestReceiveBufferFIFOPerSender: Figure 2's R_ji,ε is a FIFO queue per
// sender and releases only its front. A frame whose tag the receiver's
// clock has reached still waits while an earlier frame from the same
// sender is held, and is handed over after it, at or after its tag.
func TestReceiveBufferFIFOPerSender(t *testing.T) {
	h := startHanded(t)
	now := h.d.now
	front := now.Add(30 * ms)
	h.send(front, "ahead")
	h.send(now, "reached")
	got := h.take(2)
	if got[0].What != "ahead" || got[1].What != "reached" || got[0].At < front || got[1].At < front {
		t.Errorf("handed %v, want ahead then reached, both at or after the front's tag %v", got, front)
	}
}

// TestCatchUpBeforeDelivery: Definition 5.1's catch-up fires every action
// due at or before the current clock before anything new is delivered. A
// timer that fell due while a frame waited in the inbox fires first, at its
// own deadline, not at the frame's clock.
func TestCatchUpBeforeDelivery(t *testing.T) {
	h := startHanded(t)
	h.send(h.d.now, "first")
	first := h.take(1)[0]
	// The host stalls for 5 ms: the timer falls due, and when node 0's loop
	// next comes round the second frame already waits in its inbox.
	h.d.now = h.d.now.Add(5 * ms)
	h.send(h.d.now, "second")
	got := h.take(3)[1:]
	if want := first.At.Add(ms); got[0] != (handed{"timer", want}) || got[1].What != "second" {
		t.Errorf("after %v handed %v, want the timer at %v, then second", first, got, want)
	}
}
