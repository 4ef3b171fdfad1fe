package live

import (
	"bufio"
	"net"
	"sort"
	"testing"
	"time"

	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

// startServed starts algorithm S on nodes × regs instances behind a Server
// serving len(tiers) of them (all of them when tiers is nil), and stops
// both when the test ends.
func startServed(t *testing.T, nodes, regs int, d2 simtime.Duration, tiers []register.Tier, sinks ...exec.Sink) (*Runtime, *Server) {
	t.Helper()
	p, bounds := liveParams(200*us, d2)
	rt, err := New(Options{N: nodes, Registers: regs, Bounds: bounds, Ell: ellBudget}, register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		rt.AddSink(s)
	}
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	if tiers != nil {
		srv.SetTiers(tiers)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		rt.Stop()
	})
	return rt, srv
}

func dialServed(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn
}

// TestServerPipelineOnePort: 200 requests pipelined at one port on one
// connection. Nothing but the node's port stands between them and the
// algorithm, so it alone must hold §6.1's alternation: the responses come
// back in request order, the monitor saw one operation at a time, and the
// recorded history linearizes.
func TestServerPipelineOnePort(t *testing.T) {
	const ops = 200
	mon := register.NewMonitor()
	mon.AddCheck("live", linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        checkWiden(200 * us),
		AssumeUnique: true,
	})
	rt, srv := startServed(t, 3, 1, 2*ms, nil, mon)
	conn := dialServed(t, srv.Addrs()[0])
	var buf []byte
	for id := 1; id <= ops; id++ {
		req := wireReq{ID: uint64(id), Op: register.ActRead}
		if id%10 == 0 {
			req.Op, req.Val = register.ActWrite, register.Value{Writer: 0, Seq: id}
		}
		buf = appendWireReq(buf, req)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for id := 1; id <= ops; id++ {
		resp, err := readWireResp(br)
		if err != nil {
			t.Fatalf("response %d: %v", id, err)
		}
		if resp.ID != uint64(id) {
			t.Fatalf("response %d carries ID %d: one port answered out of request order", id, resp.ID)
		}
	}
	srv.Close()
	rt.Stop()
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if v := mon.Verdict("live"); !v.OK {
		t.Fatalf("pipelined history not linearizable: %s", v.Reason)
	}
	if got := mon.Reads.N + mon.Writes.N; got != ops {
		t.Fatalf("monitor completed %d operations, want %d", got, ops)
	}
}

// TestServerStalledClientDoesNotStallNode: one connection pipelines reads
// without ever reading a response. Its writer ends up blocked in write(2),
// its response queue full and its reader out of slots — blocked, not torn
// down — and none of that may reach the node: a second connection to the
// same node, at the same ports, completes reads at their usual price and
// the node's timers stay inside ℓ.
func TestServerStalledClientDoesNotStallNode(t *testing.T) {
	const regs = 16
	mon := register.NewMonitor()
	rt, srv := startServed(t, 3, regs, 2*ms, nil, mon)

	stalled := dialServed(t, srv.Addrs()[0])
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	var c *svcConn
	for deadline := time.Now().Add(5 * time.Second); c == nil; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		for c = range srv.conns {
		}
		srv.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the server never registered the connection")
		}
	}
	// Small kernel buffers on both ends, so that the flood fills them in
	// thousands of responses rather than hundreds of thousands.
	c.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	go func() {
		var buf []byte
		for id := uint64(1); ; {
			buf = buf[:0]
			for i := 0; i < 64; i, id = i+1, id+1 {
				buf = appendWireReq(buf, wireReq{ID: id, Reg: int(id % regs), Op: register.ActRead})
			}
			if _, err := stalled.Write(buf); err != nil {
				return // closed by the test's cleanup
			}
		}
	}()
	full := func() bool { return len(c.slots) == cap(c.slots) && len(c.writeCh) == cap(c.writeCh) }
	for deadline := time.Now().Add(30 * time.Second); !full(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the flooding connection never stalled: %d of %d slots taken, %d responses queued",
				len(c.slots), cap(c.slots), len(c.writeCh))
		}
	}

	other := dialServed(t, srv.Addrs()[0])
	br := bufio.NewReader(other)
	took := make([]time.Duration, 64)
	for i := range took {
		start := time.Now()
		if _, err := other.Write(appendWireReq(nil, wireReq{ID: uint64(i), Reg: i % regs, Op: register.ActRead})); err != nil {
			t.Fatal(err)
		}
		if _, err := readWireResp(br); err != nil {
			t.Fatalf("read %d beside the stalled connection: %v", i, err)
		}
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	floor, _ := simtime.ToWall(2*200*us + 100*us) // a read's 2ε + δ + c
	if p50 := took[len(took)/2]; p50 > 2*floor*raceScale {
		t.Errorf("reads beside a stalled connection took p50 %v, floor %v", p50, floor)
	}
	select {
	case <-c.done:
		t.Error("the stalled connection was torn down; it should only be blocked")
	default:
		if !full() {
			t.Errorf("the stalled connection moved on: %d of %d slots taken", len(c.slots), cap(c.slots))
		}
	}
	srv.Close()
	m := rt.Stop()
	// The p99, not the max: the flood saturates the host on purpose, and one
	// descheduling of the whole process sets the max whatever the node does.
	// A node blocked on the stalled client would have answered nothing above.
	t.Logf("read p50 %v beside the stalled connection (floor %v), timer-late p99 %v max %v",
		took[len(took)/2], floor, m.TimerLateP99, m.TimerLate)
	if m.TimerLateP99 > ellBudget {
		t.Errorf("node timers ran %v late (p99) beside a stalled connection, ℓ = %v", m.TimerLateP99, ellBudget)
	}
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsUnservedRegister is the fleet daemon's shape: the
// runtime hosts one instance more than the server serves (the detector
// rides last). A request naming that instance closes its connection —
// nothing panics, nothing is invoked or recorded at the instance — and the
// served registers go on answering.
func TestServerRejectsUnservedRegister(t *testing.T) {
	const served = 2
	sink := &eventSink{}
	rt, srv := startServed(t, 1, served+1, 2*ms, []register.Tier{register.TierLin, register.TierLin}, sink)

	bad := dialServed(t, srv.Addrs()[0])
	if _, err := bad.Write(appendWireReq(nil, wireReq{ID: 1, Reg: served, Op: register.ActRead})); err != nil {
		t.Fatal(err)
	}
	if resp, err := readWireResp(bufio.NewReader(bad)); err == nil {
		t.Fatalf("a read of the unserved instance %d was answered: %+v", served, resp)
	}

	good := dialServed(t, srv.Addrs()[0])
	if _, err := good.Write(appendWireReq(nil, wireReq{ID: 2, Reg: served - 1, Op: register.ActRead})); err != nil {
		t.Fatal(err)
	}
	if resp, err := readWireResp(bufio.NewReader(good)); err != nil || resp.ID != 2 {
		t.Fatalf("a served register stopped answering: %+v, %v", resp, err)
	}
	srv.Close()
	rt.Stop()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.events {
		if e.Action.Node == rt.Port(0, served) {
			t.Errorf("recorded at the unserved instance: %v", e)
		}
	}
	if len(sink.events) != 2 {
		t.Errorf("recorded %d events, want the served read's two", len(sink.events))
	}

	defer func() {
		if recover() == nil {
			t.Error("SetTiers accepted more tiers than the runtime hosts instances")
		}
	}()
	srv.SetTiers(make([]register.Tier, served+2))
}
