package live

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/ta"
)

// leakCheck snapshots the process's goroutines and open descriptors and
// returns a check that both are back where they were. Goroutines finish
// unwinding just after the channel close that joins them, so the check
// waits for the counts to settle instead of sampling once.
func leakCheck(t *testing.T) (check func()) {
	t.Helper()
	count := func() (goroutines, fds int) {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return runtime.NumGoroutine(), len(ents)
	}
	g0, f0 := count()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			g, f := count()
			if g <= g0 && f <= f0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("left behind: goroutines %d → %d, descriptors %d → %d", g0, g, f0, f)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func beating(ta.NodeID, int) core.Algorithm {
	return detector.New(detector.Params{Period: ms, Timeout: 20 * ms})
}

// TestWakeSourceStartStopCycles: every Start opens one timer descriptor and
// one reader per node; every Stop must give all of them back.
func TestWakeSourceStartStopCycles(t *testing.T) {
	check := leakCheck(t)
	for i := 0; i < 200; i++ {
		rt, err := New(Options{N: 3}, beating)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
	}
	check()
}

// TestStartUnwinds: a Start that fails at the transport — its one peer's
// address refuses connections, so the dial Start makes fails — must release
// the recorder's consumer, the transport's listener and whatever else it
// had already built, and leave Stop a safe no-op.
func TestStartUnwinds(t *testing.T) {
	check := leakCheck(t)
	for i := 0; i < 20; i++ {
		// The mesh listens first, so that the port the dead listener frees
		// cannot be handed straight back to it.
		mesh, err := NewMeshTransport(0, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead.Close()
		mesh.SetPeer(1, dead.Addr().String())
		rt, err := New(Options{N: 2, Transport: mesh, Local: []int{0}}, beating)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err == nil {
			t.Fatal("Start succeeded on a transport whose peer refuses connections")
		}
		if err := rt.invoke(0, invocation{name: "x"}); err == nil {
			t.Error("invoke accepted by a runtime whose Start failed")
		}
		if m := rt.Stop(); m != (Measured{}) {
			t.Errorf("Stop after a failed Start measured %+v", m)
		}
	}
	check()
}
