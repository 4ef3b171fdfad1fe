package core

import (
	"fmt"
	"strings"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func TestSendBufferTagsWithClock(t *testing.T) {
	sb := NewSendBuffer(0, 1, clock.Fast(ms))
	a := ta.Action{Name: ta.NameSendMsg, Node: 0, Peer: 1, Kind: ta.KindOutput, Payload: ta.Msg{Body: "m"}}
	out := sb.Deliver(simtime.Time(10*ms), a)
	if len(out) != 1 || out[0].Name != ta.NameESendMsg {
		t.Fatalf("out = %v", out)
	}
	tm := out[0].Payload.(ta.TaggedMsg)
	if tm.SentClock != simtime.Time(11*ms) { // fast clock: now + ε
		t.Errorf("tag = %v, want 11ms", tm.SentClock)
	}
	if sb.Deliver(0, ta.Action{Name: "OTHER"}) != nil {
		t.Error("foreign action handled")
	}
	if _, ok := sb.Due(0); ok {
		t.Error("send buffer has deadlines")
	}
}

func TestRecvBufferLiteralSemantics(t *testing.T) {
	rb := NewRecvBuffer(1, 0, clock.Slow(ms), "XRECVMSG")
	in := func(body string, tag simtime.Time) ta.Action {
		return ta.Action{Name: "XRECVMSG", Node: 0, Peer: 1, Kind: ta.KindInput,
			Payload: ta.TaggedMsg{Body: body, SentClock: tag}}
	}
	// At real 10ms the slow clock reads 9ms: a tag of 9.5ms must wait.
	if out := rb.Deliver(simtime.Time(10*ms), in("late", simtime.Time(9500*us))); out != nil {
		t.Fatalf("early release: %v", out)
	}
	if rb.Held() != 1 {
		t.Fatal("not held")
	}
	due, ok := rb.Due(simtime.Time(10 * ms))
	if !ok || due != simtime.Time(10500*us) { // clock reaches 9.5ms at real 10.5ms
		t.Fatalf("due = %v %v", due, ok)
	}
	// A second message with a smaller tag queues behind (head of line).
	if out := rb.Deliver(simtime.Time(10100*us), in("behind", simtime.Time(9*ms))); out != nil {
		t.Fatalf("queue jumped: %v", out)
	}
	out := rb.Fire(due)
	if len(out) != 2 {
		t.Fatalf("released %d, want both (front unblocks successor)", len(out))
	}
	if out[0].Payload.(ta.TaggedMsg).Body != "late" || out[1].Payload.(ta.TaggedMsg).Body != "behind" {
		t.Errorf("order = %v", out)
	}
	if rb.Held() != 0 {
		t.Error("queue not drained")
	}
}

// TestCompositeReceiveFromOutsideRange: R_ji,ε exists for senders 0..n-1
// only, so a Receive from any other sender panics naming it.
func TestCompositeReceiveFromOutsideRange(t *testing.T) {
	for _, from := range []ta.NodeID{2, ta.NoNode} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("sender %d,", from); !strings.Contains(msg, want) {
					t.Errorf("Receive from %d: panic %q, want one naming %q", from, msg, want)
				}
			}()
			NewComposite(0, 2, &relay{}).Receive(0, from, ta.TaggedMsg{Body: "m"})
		}()
	}
	if out := NewComposite(0, 2, &relay{}).Receive(0, 1, ta.TaggedMsg{Body: "m"}); len(out) == 0 {
		t.Error("in-range message with a reached tag was not delivered")
	}
}
