package live

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/exec"
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
		before := settledGoroutines(t)
		rt, srv := startServed(t, nodes, regs, 2*ms, nil)
		got := settledGoroutines(t) - before
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

// TestDeploy pins the one assembly of a live store. A model that cannot run
// is refused before anything is built, and the transport it was given is
// closed. Register r runs its tier's algorithm with the model's Params — the
// lin read pays 2ε more than the seq read, both writes d'2−c — the extras
// follow the registers, and the sinks keep their order. The server offers
// only the registers, each at its tier: a request at the extra, or a read
// naming the wrong tier, closes its connection.
func TestDeploy(t *testing.T) {
	check := leakCheck(t)
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.Addr(0)
	bad := Model{Eps: 200 * us, D1: 3 * ms, D2: 2 * ms, Delta: 100 * us}
	if _, _, err := Deploy(bad, []register.Tier{register.TierLin}, nil, Options{N: 2, Transport: tr}); err == nil {
		t.Fatal("Deploy accepted d1 > d2")
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("a failed Deploy left %s listening", addr)
	}
	check()

	m := Model{Eps: 300 * us, D2: 2 * ms, Delta: 100 * us, C: 50 * us}
	tiers := []register.Tier{register.TierLin, register.TierSeq}
	det := detector.Params{Period: 50 * ms, Timeout: 500 * ms}
	sinks := []exec.Sink{&eventSink{}, &eventSink{}}
	rt, srv, err := Deploy(m, tiers, []core.AlgorithmFactory{detector.Factory(det)}, Options{N: 2}, sinks...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.sinks) != 2 || rt.sinks[0] != sinks[0] || rt.sinks[1] != sinks[1] {
		t.Errorf("sinks %v, want %v in order", rt.sinks, sinks)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		srv.Close()
		rt.Stop()
	}()
	var algs []core.Algorithm
	for _, inst := range rt.nodes[1].insts {
		algs = append(algs, inst.Algorithm())
	}
	for r, wantRead := range []simtime.Duration{2*m.Eps + m.C + m.Delta, m.C + m.Delta} {
		ls, ok := algs[r].(*register.LS)
		if !ok {
			t.Fatalf("register %d runs %T, want *register.LS", r, algs[r])
		}
		if read, write := ls.Costs(); read != wantRead || write != m.D2+2*m.Eps-m.C {
			t.Errorf("register %d (%v) costs read %v write %v, want %v and %v", r, tiers[r], read, write, wantRead, m.D2+2*m.Eps-m.C)
		}
	}
	if len(algs) != 3 {
		t.Fatalf("node hosts %d instances, want 2 registers and 1 extra", len(algs))
	}
	if _, ok := algs[2].(*detector.Detector); !ok {
		t.Errorf("instance 2 runs %T, want the extra's *detector.Detector", algs[2])
	}

	answered := func(req wireReq) bool {
		conn := dialServed(t, srv.Addrs()[0])
		conn.SetDeadline(time.Now().Add(5 * time.Second)) // a request wrongly admitted at the extra is never answered
		if _, err := conn.Write(appendWireReq(nil, req)); err != nil {
			t.Fatal(err)
		}
		_, err := readWireResp(bufio.NewReader(conn))
		return err == nil
	}
	for _, c := range []struct {
		req  wireReq
		want bool
	}{
		{wireReq{ID: 1, Reg: 0, Op: register.ActRead}, true},
		{wireReq{ID: 2, Reg: 1, Op: register.ActRead, Tier: register.TierSeq}, true},
		{wireReq{ID: 3, Reg: 1, Op: register.ActWrite, Val: register.Value{Writer: 0, Seq: 1}}, true},
		{wireReq{ID: 4, Reg: 0, Op: register.ActRead, Tier: register.TierSeq}, false},
		{wireReq{ID: 5, Reg: 1, Op: register.ActRead}, false},
		{wireReq{ID: 6, Reg: 2, Op: register.ActRead}, false},
		{wireReq{ID: 7, Reg: 2, Op: register.ActWrite, Val: register.Value{Writer: 0, Seq: 2}}, false},
	} {
		if got := answered(c.req); got != c.want {
			t.Errorf("%+v answered %v, want %v", c.req, got, c.want)
		}
	}
}

// settledGoroutines reads runtime.NumGoroutine once the count has stopped
// moving — the same value on ten consecutive reads a millisecond apart —
// so that a goroutine still starting or exiting is not counted mid-flight.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
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
