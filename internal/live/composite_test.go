package live

import (
	"testing"
	"time"

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
// 1 ms ahead, waits until the test has enqueued the next frame, and then
// sleeps 5 ms: that frame is in the inbox, behind nothing, when the timer
// falls due.
type handedAlg struct {
	got      chan handed
	enqueued chan struct{}
}

func (a *handedAlg) Start(core.Context)                {}
func (a *handedAlg) OnInput(core.Context, string, any) {}

func (a *handedAlg) OnMessage(ctx core.Context, _ ta.NodeID, body any) {
	a.got <- handed{body.(string), ctx.Time()}
	if body == "first" {
		ctx.SetTimer(ctx.Time().Add(ms), "timer")
		<-a.enqueued
		time.Sleep(5 * time.Millisecond)
	}
}

func (a *handedAlg) OnTimer(ctx core.Context, key any) {
	a.got <- handed{key.(string), ctx.Time()}
}

// take returns the next k things the instance was handed.
func (a *handedAlg) take(t *testing.T, k int) []handed {
	t.Helper()
	var got []handed
	for len(got) < k {
		select {
		case h := <-a.got:
			got = append(got, h)
		case <-time.After(5 * time.Second):
			t.Fatalf("handed only %v, want %d", got, k)
		}
	}
	return got
}

// startHanded starts a two-node runtime on perfect clocks whose node-0
// instance is a handedAlg. The tests put frames from node 1 straight on
// node 0's inbox (enqueueFrame), so what node 0 is handed, and in what
// order, depends on the node loop alone.
func startHanded(t *testing.T) (*Runtime, *handedAlg) {
	t.Helper()
	alg := &handedAlg{got: make(chan handed, 8), enqueued: make(chan struct{})}
	rt, err := New(Options{N: 2}, func(id ta.NodeID, _ int) core.Algorithm {
		if id == 0 {
			return alg
		}
		return &handedAlg{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Stop() })
	return rt, alg
}

// send puts a frame from node 1 tagged tag on node 0's inbox.
func send(rt *Runtime, tag simtime.Time, body string) {
	rt.enqueueFrame(Frame{From: 1, To: 0, SentClock: tag, SentReal: Since(rt.epoch), Body: body})
}

// TestReceiveBufferFIFOPerSender: Figure 2's R_ji,ε is a FIFO queue per
// sender and releases only its front. A frame whose tag the receiver's
// clock has reached still waits while an earlier frame from the same
// sender is held, and is handed over after it, at or after its tag.
func TestReceiveBufferFIFOPerSender(t *testing.T) {
	rt, alg := startHanded(t)
	now := Since(rt.epoch)
	front := now.Add(30 * ms)
	send(rt, front, "ahead")
	send(rt, now, "reached")
	got := alg.take(t, 2)
	if got[0].What != "ahead" || got[1].What != "reached" || got[0].At < front || got[1].At < front {
		t.Errorf("handed %v, want ahead then reached, both at or after the front's tag %v", got, front)
	}
}

// TestCatchUpBeforeDelivery: Definition 5.1's catch-up fires every action
// due at or before the current clock before anything new is delivered. A
// timer that fell due while a frame waited in the inbox fires first, at its
// own deadline, not at the frame's clock.
func TestCatchUpBeforeDelivery(t *testing.T) {
	rt, alg := startHanded(t)
	send(rt, Since(rt.epoch), "first")
	first := alg.take(t, 1)[0]
	send(rt, Since(rt.epoch), "second")
	close(alg.enqueued)
	got := alg.take(t, 2)
	if want := first.At.Add(ms); got[0] != (handed{"timer", want}) || got[1].What != "second" {
		t.Errorf("after %v handed %v, want the timer at %v, then second", first, got, want)
	}
}
