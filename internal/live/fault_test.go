package live

import (
	"testing"
	"time"

	"psclock/internal/ta"
)

// TestFaultTransport pins the chaos wrapper on the socket-free mesh, node 0
// being the wrapped end: a cut drops both directions and counts every frame
// it drops in Drops (which is how a partition reaches Measured.SendDrops),
// self frames pass, a heal restores delivery, and a delay holds only frames
// to a peer, by at least the delay.
func TestFaultTransport(t *testing.T) {
	ft := NewFaultTransport(0, NewLocalTransport(2))
	logs := [2]*frameLog{newFrameLog(), newFrameLog()}
	if err := ft.Start(func(f Frame) { logs[f.To].deliver(f) }); err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, ft, 5*time.Second)
	send := func(from, to, body int) {
		t.Helper()
		if err := ft.Send(Frame{From: ta.NodeID(from), To: ta.NodeID(to), Body: body}); err != nil {
			t.Fatal(err)
		}
	}

	const k = 20
	ft.SetPartition(1, true)
	for i := 0; i < k; i++ {
		send(0, 1, i)
		send(1, 0, i)
		send(0, 0, i)
	}
	wantSeq(t, "self frames across a cut", logs[0].waitFor(t, k, fromNode(0)), 0, k)
	// The 1→0 frames are dropped as they are delivered, after Send returned.
	for deadline := time.Now().Add(10 * time.Second); ft.Drops() < 2*k && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := ft.Drops(); got != 2*k {
		t.Fatalf("a cut counted %d drops, want %d: every frame either way", got, 2*k)
	}

	ft.SetPartition(1, false)
	for i := k; i < 2*k; i++ {
		send(0, 1, i)
		send(1, 0, i)
	}
	wantSeq(t, "0→1 after the heal", logs[1].waitFor(t, k, fromNode(0)), k, k)
	wantSeq(t, "1→0 after the heal", logs[0].waitFor(t, k, fromNode(1)), k, k)
	if got := ft.Drops(); got != 2*k {
		t.Fatalf("Drops = %d after the heal, want still %d", got, 2*k)
	}

	const delay = 100 * time.Millisecond
	ft.SetDelay(delay)
	sent := time.Now()
	send(0, 1, 2*k)
	send(0, 0, k)
	logs[0].waitFor(t, k+1, fromNode(0))
	if took := time.Since(sent); took >= delay {
		t.Errorf("a self frame took %v under a %v peer delay", took, delay)
	}
	logs[1].waitFor(t, k+1, fromNode(0))
	if took := time.Since(sent); took < delay {
		t.Errorf("a peer frame took %v under a %v delay", took, delay)
	}
}
