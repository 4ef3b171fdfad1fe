package live

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"psclock/internal/clock"
	"psclock/internal/register"
	"psclock/internal/ta"
)

// frameLog collects what one node's delivery callback sees.
type frameLog struct {
	mu     sync.Mutex
	frames []Frame
	hold   chan struct{} // non-nil: delivery blocks until it closes
	more   chan struct{}
}

func newFrameLog() *frameLog { return &frameLog{more: make(chan struct{}, 1)} }

func (l *frameLog) deliver(f Frame) {
	l.mu.Lock()
	hold := l.hold
	l.mu.Unlock()
	if hold != nil {
		<-hold
	}
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	select {
	case l.more <- struct{}{}:
	default:
	}
}

// waitFor blocks until n frames satisfying keep have arrived and returns
// their bodies in arrival order.
func (l *frameLog) waitFor(t *testing.T, n int, keep func(Frame) bool) []int {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		var got []int
		l.mu.Lock()
		for _, f := range l.frames {
			if keep(f) {
				got = append(got, f.Body.(int))
			}
		}
		l.mu.Unlock()
		if len(got) >= n {
			return got
		}
		select {
		case <-l.more:
		case <-timeout:
			t.Fatalf("got %d of %d frames: %v", len(got), n, got)
		}
	}
}

func wantSeq(t *testing.T, what string, got []int, from, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: got %d frames, want %d: %v", what, len(got), n, got)
	}
	for i, v := range got {
		if v != from+i {
			t.Fatalf("%s: frame %d carries %d, want %d (FIFO broken): %v", what, i, v, from+i, got)
		}
	}
}

// meshDeployment is n nodes on the one transport type, deployed one of its
// three ways.
type meshDeployment struct {
	endpoints []*MeshTransport // distinct transports
	of        []*MeshTransport // node → the transport hosting it
	logs      []*frameLog
	sockets   bool // links between distinct nodes are TCP connections
}

func (d *meshDeployment) close(t *testing.T) {
	t.Helper()
	for _, e := range d.endpoints {
		closeWithin(t, e, 5*time.Second)
	}
}

// closeWithin requires Close to join every goroutine in time.
func closeWithin(t *testing.T, tr *MeshTransport, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("Close did not return within %v", limit)
	}
}

func deployInProcess(t *testing.T, n int) *meshDeployment {
	t.Helper()
	tr, err := NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "tcp" {
		t.Fatalf("in-process TCP transport is named %q; reports treat the name as configuration, want tcp", tr.Name())
	}
	return deployOne(t, tr, n)
}

func deployLocal(t *testing.T, n int) *meshDeployment {
	t.Helper()
	return deployOne(t, NewLocalTransport(n), n)
}

// deployOne starts a transport that hosts all n nodes.
func deployOne(t *testing.T, tr *MeshTransport, n int) *meshDeployment {
	t.Helper()
	d := &meshDeployment{endpoints: []*MeshTransport{tr}}
	for i := 0; i < n; i++ {
		d.of = append(d.of, tr)
		d.logs = append(d.logs, newFrameLog())
	}
	if err := tr.Start(func(f Frame) { d.logs[f.To].deliver(f) }); err != nil {
		t.Fatal(err)
	}
	return d
}

func deployEndpoints(t *testing.T, n int) *meshDeployment {
	t.Helper()
	d := &meshDeployment{}
	for i := 0; i < n; i++ {
		tr, err := NewMeshTransport(i, n, "")
		if err != nil {
			t.Fatal(err)
		}
		log := newFrameLog()
		d.endpoints = append(d.endpoints, tr)
		d.of = append(d.of, tr)
		d.logs = append(d.logs, log)
		if err := tr.Start(log.deliver); err != nil {
			t.Fatal(err)
		}
	}
	// Wired after Start, the way the plane announces peers.
	for i, tr := range d.endpoints {
		for j, peer := range d.endpoints {
			if i != j {
				tr.SetPeer(j, peer.Addr(j))
			}
		}
	}
	return d
}

// send may be called from any goroutine, so it reports with Errorf.
func (d *meshDeployment) send(t *testing.T, from, to, body int) {
	t.Helper()
	if err := d.of[from].Send(Frame{From: ta.NodeID(from), To: ta.NodeID(to), Body: body}); err != nil {
		t.Errorf("send %d→%d: %v", from, to, err)
	}
}

// fromNode keeps node n's data frames; the linkUp that opens every
// connection is the runtime's, not the test's.
func fromNode(n int) func(Frame) bool {
	return func(f Frame) bool { return int(f.From) == n && f.Chan != ctlChan }
}

// TestMeshTransport runs one table of behaviours against the three
// deployments of the one transport: all three nodes in one process over
// loopback TCP (NewTCPTransport), three single-node endpoints wired by
// SetPeer (NewMeshTransport), and all three nodes in one process with no
// sockets (NewLocalTransport), which skips the cases about connections.
func TestMeshTransport(t *testing.T) {
	deployments := []struct {
		name    string
		sockets bool
		deploy  func(*testing.T, int) *meshDeployment
	}{
		{"in-process", true, deployInProcess},
		{"endpoints", true, deployEndpoints},
		{"local", false, deployLocal},
	}
	cases := []struct {
		name    string
		sockets bool // the case is about connections
		run     func(*testing.T, *meshDeployment)
	}{
		{"per-pair FIFO and self frames", false, func(t *testing.T, d *meshDeployment) {
			const k = 200
			var wg sync.WaitGroup
			for from := 0; from < 3; from++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < k; i++ {
						for to := 0; to < 3; to++ { // to == from: the self frame
							d.send(t, from, to, i)
						}
					}
				}()
			}
			wg.Wait()
			for to := 0; to < 3; to++ {
				for from := 0; from < 3; from++ {
					got := d.logs[to].waitFor(t, k, fromNode(from))
					wantSeq(t, fmt.Sprintf("%d→%d", from, to), got, 0, k)
				}
			}
			for _, e := range d.endpoints {
				if e.Drops() != 0 || e.Reconnects() != 0 {
					t.Fatalf("clean run counted %d drops, %d reconnects", e.Drops(), e.Reconnects())
				}
			}
		}},
		{"a stalled node holds up only its own self frames", false, func(t *testing.T, d *meshDeployment) {
			hold := make(chan struct{})
			defer close(hold)
			d.logs[0].mu.Lock()
			d.logs[0].hold = hold
			d.logs[0].mu.Unlock()
			d.send(t, 0, 0, 0) // parks node 0's self delivery
			d.send(t, 1, 1, 0)
			d.logs[1].waitFor(t, 1, fromNode(1))
		}},
		{"peer restarted at a new address", true, func(t *testing.T, d *meshDeployment) {
			const k = 50
			src := d.of[0]
			for i := 0; i < k; i++ {
				d.send(t, 0, 1, i)
			}
			wantSeq(t, "before the restart", d.logs[1].waitFor(t, k, fromNode(0)), 0, k)

			// Node 1 goes away: its address now refuses connections, so
			// what node 0 sends it queues behind a failing redial.
			dead, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			deadAddr := dead.Addr().String()
			dead.Close()
			src.SetPeer(1, deadAddr)
			for i := k; i < 2*k; i++ {
				d.send(t, 0, 1, i)
			}
			// Its replacement listens somewhere new; SetPeer re-wires.
			repl, err := NewMeshTransport(1, 3, "")
			if err != nil {
				t.Fatal(err)
			}
			log := newFrameLog()
			if err := repl.Start(log.deliver); err != nil {
				t.Fatal(err)
			}
			defer closeWithin(t, repl, 5*time.Second)
			src.SetPeer(1, repl.Addr(1))
			for i := 2 * k; i < 3*k; i++ {
				d.send(t, 0, 1, i)
			}
			wantSeq(t, "at the replacement", log.waitFor(t, 2*k, fromNode(0)), k, 2*k)
			if got := src.Reconnects(); got < 1 {
				t.Fatalf("Reconnects = %d after a re-wire, want ≥ 1", got)
			}
			if got := src.Drops(); got != 0 {
				t.Fatalf("Drops = %d: frames queued across the re-wire were lost", got)
			}
		}},
		{"a moved address ends the back-off", true, func(t *testing.T, _ *meshDeployment) {
			// An endpoint of its own, its back-off stretched so that waiting
			// it out cannot be mistaken for anything else: one refused dial
			// parks the link for 30 s.
			src, err := NewMeshTransport(0, 3, "")
			if err != nil {
				t.Fatal(err)
			}
			src.backoffMin, src.backoffMax = 30*time.Second, 30*time.Second
			if err := src.Start(func(Frame) {}); err != nil {
				t.Fatal(err)
			}
			defer closeWithin(t, src, 5*time.Second)
			dead, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			deadAddr := dead.Addr().String()
			dead.Close()
			src.SetPeer(1, deadAddr)
			time.Sleep(100 * time.Millisecond) // the refused dial, and the back-off begun

			repl, err := NewMeshTransport(1, 3, "")
			if err != nil {
				t.Fatal(err)
			}
			log := newFrameLog()
			if err := repl.Start(log.deliver); err != nil {
				t.Fatal(err)
			}
			defer closeWithin(t, repl, 5*time.Second)
			moved := time.Now()
			src.SetPeer(1, repl.Addr(1))
			if err := src.Send(Frame{From: 0, To: 1, Body: 0}); err != nil {
				t.Fatal(err)
			}
			wantSeq(t, "at the moved address", log.waitFor(t, 1, fromNode(0)), 0, 1)
			if took := time.Since(moved); took > src.backoffMax/10 {
				t.Fatalf("frame reached the moved address after %v: the link sat out its back-off", took)
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			if first := log.frames[0]; first.Chan != ctlChan || first.Body != (linkUp{}) || first.From != 0 {
				t.Fatalf("first frame on the new connection is %+v, want node 0's linkUp", first)
			}
		}},
		{"queue-full drop is counted", false, func(t *testing.T, d *meshDeployment) {
			src := d.of[0]
			// Nothing drains the 0→2 queue: over sockets its address refuses
			// connections, locally node 2 stops taking delivery.
			if d.sockets {
				dead, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				deadAddr := dead.Addr().String()
				dead.Close()
				src.SetPeer(2, deadAddr)
			} else {
				hold := make(chan struct{})
				defer close(hold)
				d.logs[2].mu.Lock()
				d.logs[2].hold = hold
				d.logs[2].mu.Unlock()
			}
			const extra = 7
			// The link's goroutine may be holding one frame it took before
			// the link stalled, so the queue absorbs depth or depth+1 sends.
			for i := 0; i < meshQueueDepth+1+extra; i++ {
				d.send(t, 0, 2, i)
			}
			if got := src.Drops(); got != extra && got != extra+1 {
				t.Fatalf("Drops = %d after overfilling a dead link by %d, want %d or %d", got, extra+1, extra, extra+1)
			}
		}},
		{"Close does not wait for a silent peer", true, func(t *testing.T, d *meshDeployment) {
			// A link's inbound end is registered once a frame has crossed it,
			// so after one frame per pair the transport hosting node 0 (which
			// in process hosts every node) has a settled inbound count.
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					if from != to {
						d.send(t, from, to, 0)
					}
				}
			}
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					if from != to {
						d.logs[to].waitFor(t, 1, fromNode(from))
					}
				}
			}
			tr := d.of[0]
			inbound := func() int {
				tr.mu.Lock()
				defer tr.mu.Unlock()
				return len(tr.accepted)
			}
			before := inbound()
			// A peer that connects and then says nothing: the accepting
			// side's reader is blocked in a read only the peer could end.
			conn, err := net.Dial("tcp", tr.Addr(0))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for deadline := time.Now().Add(5 * time.Second); inbound() != before+1; {
				if time.Now().After(deadline) {
					t.Fatal("silent connection never accepted")
				}
				time.Sleep(time.Millisecond)
			}
			// d.close, deferred by the harness, must now return in time.
		}},
	}
	for _, dep := range deployments {
		for _, c := range cases {
			if c.sockets && !dep.sockets {
				continue
			}
			t.Run(dep.name+"/"+c.name, func(t *testing.T) {
				d := dep.deploy(t, 3)
				d.sockets = dep.sockets
				defer d.close(t)
				c.run(t, d)
			})
		}
	}
}

// TestMeshTransportFaults pins the two chaos hooks on node 0's transport,
// in the two deployments they serve: both nodes on one socket-free
// transport, and two single-node endpoints over loopback TCP wired by
// SetPeer, where a frame from the cut peer is dropped by the reading end. A
// cut drops both directions and counts every frame it drops in Drops (which
// is how a partition reaches Measured.SendDrops), self frames pass, a heal
// restores delivery, a delay holds only frames to a peer, by at least the
// delay, and a frame still held when a cut begins is dropped, not
// delivered.
func TestMeshTransportFaults(t *testing.T) {
	for _, dep := range []struct {
		name   string
		deploy func(*testing.T, int) *meshDeployment
	}{
		{"local", deployLocal},
		{"endpoints", deployEndpoints},
	} {
		t.Run(dep.name, func(t *testing.T) {
			d := dep.deploy(t, 2)
			defer d.close(t)
			tr := d.of[0]
			drops := func(want int64) {
				t.Helper()
				// Frames are dropped at the far end of a socket, or when a
				// held one's timer fires: after Send returned.
				for deadline := time.Now().Add(10 * time.Second); tr.Drops() < want && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if got := tr.Drops(); got != want {
					t.Fatalf("Drops = %d, want %d", got, want)
				}
			}

			// One frame each way first: over TCP each link's connection
			// opens with a linkUp, which a cut would drop too.
			d.send(t, 0, 1, 0)
			d.send(t, 1, 0, 0)
			d.logs[1].waitFor(t, 1, fromNode(0))
			d.logs[0].waitFor(t, 1, fromNode(1))

			const k = 20
			tr.SetPartition(1, true)
			for i := 1; i <= k; i++ {
				d.send(t, 0, 1, i)
				d.send(t, 1, 0, i)
				d.send(t, 0, 0, i)
				d.send(t, 1, 1, i)
			}
			wantSeq(t, "0's self frames across a cut", d.logs[0].waitFor(t, k, fromNode(0)), 1, k)
			wantSeq(t, "1's self frames across a cut", d.logs[1].waitFor(t, k, fromNode(1)), 1, k)
			drops(2 * k)

			tr.SetPartition(1, false)
			for i := k + 1; i <= 2*k; i++ {
				d.send(t, 0, 1, i)
				d.send(t, 1, 0, i)
			}
			// The warm-up frame, then the heal's: nothing sent across the cut.
			wantSeq(t, "0→1 after the heal", d.logs[1].waitFor(t, k+1, fromNode(0))[1:], k+1, k)
			wantSeq(t, "1→0 after the heal", d.logs[0].waitFor(t, k+1, fromNode(1))[1:], k+1, k)
			drops(2 * k)

			const delay = 100 * time.Millisecond
			tr.SetDelay(delay)
			sent := time.Now()
			d.send(t, 0, 1, 2*k+1)
			d.send(t, 0, 0, k+1)
			d.logs[0].waitFor(t, k+1, fromNode(0))
			if took := time.Since(sent); took >= delay {
				t.Errorf("a self frame took %v under a %v peer delay", took, delay)
			}
			d.logs[1].waitFor(t, k+2, fromNode(0))
			if took := time.Since(sent); took < delay {
				t.Errorf("a peer frame took %v under a %v delay", took, delay)
			}

			// Held when the cut begins: dropped when the hold ends.
			d.send(t, 0, 1, 2*k+2)
			tr.SetPartition(1, true)
			drops(2*k + 1)
			tr.SetPartition(1, false)
			tr.SetDelay(0)
			d.send(t, 0, 1, 2*k+3)
			got := d.logs[1].waitFor(t, k+3, fromNode(0))
			if last := got[len(got)-1]; len(got) != k+3 || last != 2*k+3 {
				t.Fatalf("0→1 after the held frame's cut: %v, want it to end with %d alone", got, 2*k+3)
			}
		})
	}
}

// TestMeshDropsMalformedFrame: a node's mesh listener is an open loopback
// port, and two daemons started with different -registers disagree about
// which channels exist, so a frame off the socket may name a register
// instance or a sender the runtime does not have. Such a frame is dropped
// at the boundary like one for a node not hosted here: the process
// survives and the nodes keep serving.
func TestMeshDropsMalformedFrame(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	p, bounds := liveParams(0, 10*ms)
	rt, err := New(Options{N: 2, Bounds: bounds, Clocks: clock.PerfectFactory(), Transport: tr},
		register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	conn, err := net.Dial("tcp", tr.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	for _, f := range []Frame{
		{From: 1, To: 0, Chan: 7},  // no such register instance
		{From: 1, To: 0, Chan: -2}, // negative and not the control channel
		{From: 9, To: 0, Chan: 0},  // not a node
		{From: -1, To: 0, Chan: ctlChan, Body: linkUp{}},
	} {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}

	// The next valid operations complete, and the mesh still carries the
	// write's UPDATE to the other node.
	want := register.Value{Writer: 0, Seq: 1}
	resp := make(chan wireResp, 1)
	for _, inv := range []struct {
		node    ta.NodeID
		name    string
		payload any
	}{{0, register.ActWrite, want}, {1, register.ActRead, nil}} {
		if err := rt.invoke(inv.node, invocation{name: inv.name, payload: inv.payload, to: resp}); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-resp:
			if inv.name == register.ActRead && r.Val != want {
				t.Fatalf("node 1 read %v after node 0 wrote %v", r.Val, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no response to %s at node %d after the malformed frames", inv.name, inv.node)
		}
	}
}
