package live

import (
	"bufio"
	"net"
	"sort"
	"testing"
	"time"

	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

// startServed deploys regs lin registers (algorithm S) and the extra
// instances on nodes nodes behind a Server, starts both, and stops both
// when the test ends.
func startServed(t *testing.T, nodes, regs int, d2 simtime.Duration, extra []core.AlgorithmFactory, sinks ...exec.Sink) (*Runtime, *Server) {
	t.Helper()
	m := Model{Eps: 200 * us, D2: d2, Delta: 100 * us}
	rt, srv, err := Deploy(m, make([]register.Tier, regs), extra, Options{N: nodes}, sinks...)
	if err != nil {
		t.Fatal(err)
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
// without ever reading a response. Its writer ends up blocked in Write,
// its response queue full and its reader out of slots — blocked, not torn
// down — and none of that may reach the node. The stalled connection is a
// net.Pipe, which holds no bytes, so the stall is complete at once and
// stays so: no kernel buffer can drain it partway. A second connection to
// the same node, at the same ports, completes reads at their usual price.
// The usual price is a control measured in the same run, not a bound on
// the host: the same reads, alternated with these, at a node with no
// stalled connection. A node blocked on the stalled client answers
// nothing; one that only shares the host's bad moments with the control
// costs what the control costs.
func TestServerStalledClientDoesNotStallNode(t *testing.T) {
	const regs = 16
	mon := register.NewMonitor()
	rt, srv := startServed(t, 3, regs, 2*ms, nil, mon)

	stalled, end := net.Pipe()
	t.Cleanup(func() { stalled.Close() })
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.serve(0, end)
	}()
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

	// Side 0 reads at the stalled connection's node, side 1 (the control)
	// at another. Which goes first alternates, so that neither side pays
	// for a host stall more often.
	conns := [2]net.Conn{dialServed(t, srv.Addrs()[0]), dialServed(t, srv.Addrs()[1])}
	brs := [2]*bufio.Reader{bufio.NewReader(conns[0]), bufio.NewReader(conns[1])}
	var took [2][]time.Duration
	for i := 0; i < 64; i++ {
		for k := range conns {
			side := (i + k) % 2
			start := time.Now()
			if _, err := conns[side].Write(appendWireReq(nil, wireReq{ID: uint64(i), Reg: i % regs, Op: register.ActRead})); err != nil {
				t.Fatal(err)
			}
			if _, err := readWireResp(brs[side]); err != nil {
				t.Fatalf("read %d at node %d (node 0 has the stalled connection): %v", i, side, err)
			}
			took[side] = append(took[side], time.Since(start))
		}
	}
	var p50 [2]time.Duration
	for side, d := range took {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		p50[side] = d[len(d)/2]
	}
	if p50[0] > 2*p50[1] {
		t.Errorf("reads beside a stalled connection took p50 %v, more than twice the %v of the same reads at a node without one", p50[0], p50[1])
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
	t.Logf("read p50 %v beside the stalled connection, %v at the control; timer-late p99 %v max %v",
		p50[0], p50[1], m.TimerLateP99, m.TimerLate)
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
	p, _ := liveParams(200*us, 2*ms)
	rt, srv := startServed(t, 1, served, 2*ms, []core.AlgorithmFactory{register.TierLin.Factory(p)}, sink)

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
}
