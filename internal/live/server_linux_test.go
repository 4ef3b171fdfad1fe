package live

import (
	"runtime"
	"testing"
	"time"

	"psclock/internal/register"
	"psclock/internal/simtime"
)

// TestServerGoroutinesIndependentOfRegisters: a port is data its node
// owns, so serving 64 registers takes the goroutines serving one does, and
// the recorder merges one ring per hosted node whatever the register count.
func TestServerGoroutinesIndependentOfRegisters(t *testing.T) {
	const nodes = 3
	started := func(regs int) int {
		check := leakCheck(t)
		before := runtime.NumGoroutine()
		rt, srv := startServed(t, nodes, regs, 2*ms, nil)
		got := runtime.NumGoroutine() - before
		if n := len(rt.rec.prods); n != nodes {
			t.Errorf("%d registers: the recorder merges %d rings, want one per hosted node (%d)", regs, n, nodes)
		}
		srv.Close()
		rt.Stop()
		check()
		return got
	}
	if one, many := started(1), started(64); one != many {
		t.Errorf("serving 1 register started %d goroutines, serving 64 started %d", one, many)
	}
}

// TestServerCloseWithQueuedRequests: a write that takes two seconds holds
// a port open with fifty reads admitted behind it. Closing the server and
// stopping the runtime must not wait for any of them, leave nothing
// running, and drop no recorded event; what never became its port's open
// operation was never stamped.
func TestServerCloseWithQueuedRequests(t *testing.T) {
	check := leakCheck(t)
	sink := &eventSink{}
	rt, srv := startServed(t, 1, 1, 2*simtime.Second, nil, sink)
	conn := dialServed(t, srv.Addrs()[0])
	buf := appendWireReq(nil, wireReq{ID: 1, Op: register.ActWrite, Val: register.Value{Writer: 0, Seq: 1}})
	for id := uint64(2); id <= 51; id++ {
		buf = appendWireReq(buf, wireReq{ID: id, Op: register.ActRead})
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(sink.named(register.ActWrite)) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write was never admitted")
		}
	}
	time.Sleep(20 * time.Millisecond * raceScale) // the reads reach the port behind it
	stopped := make(chan Measured, 1)
	go func() {
		srv.Close()
		stopped <- rt.Stop()
	}()
	select {
	case m := <-stopped:
		if m.RecorderDrops != 0 {
			t.Errorf("shutdown dropped %d recorded events", m.RecorderDrops)
		}
	case <-time.After(time.Second):
		t.Fatal("Close and Stop waited on requests queued behind a busy port")
	}
	conn.Close()
	check()
	if n := len(sink.named(register.ActRead)); n != 0 {
		t.Errorf("%d reads were stamped while the port's write was still open", n)
	}
}
