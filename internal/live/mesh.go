package live

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/ta"
)

// MeshTransport is the one inter-node transport: every ordered pair of
// nodes (from hosted here, to anywhere) is a link — a bounded outbound
// queue and a goroutine draining it, into a persistent gob stream over one
// TCP connection for distinct nodes. It hosts a set of local nodes, and the
// two constructors are its two deployments: NewTCPTransport hosts all n
// nodes in one process with every address known up front (pscserve, the
// benchmark, and the runtime's default); and NewMeshTransport hosts one
// node whose peers' addresses the fleet's control plane supplies — and
// re-supplies after a crashed peer is replaced — through SetPeer.
//
// Message bodies cross as interface values, which is why the algorithm
// packages register their body types (register/wire.go, detector/wire.go).
// The stream is long-lived on purpose: gob sends a type descriptor once per
// stream and compiles its codecs once, where a fresh codec per frame
// recompiles and retransmits them every time — at pipelined rates that
// recompilation dominated CPU profiles of the whole process. All logical
// register channels between a node pair multiplex the pair's connection
// (Frame.Chan distinguishes them), so R register instances cost the same
// number of sockets as one.
//
// Links whose address is known at Start are dialed there, before any frame
// exists: dial plus handshake takes hundreds of microseconds on loopback,
// and a lazy dial charges that to the first message's [d1, d2] delay
// measurement. A link without an address yet dials when SetPeer names one,
// and any link redials when its connection breaks or its address changes —
// at once when SetPeer moves it, with bounded exponential backoff while an
// address keeps refusing; frames queue meanwhile, and each successful dial
// after a link's first is counted (Reconnects). Every connection opens with
// a linkUp frame (transfer.go): how a replaced node learns a peer reaches it.
//
// Sends never block on the socket. The writer coalesces every queued frame
// into its buffered stream per wakeup and flushes once the queue
// momentarily drains, so under pipelined load the per-frame syscall cost
// amortizes away and an idle link adds no latency. A frame that finds its
// queue full is dropped and counted (Drops): the peer has been unreachable
// for a long time, or the node is overloaded, and backpressure here would
// wedge the node loop. A lost register update is indistinguishable from a
// message the model never delivered on time — the online checker, not the
// transport, judges whether the run survived.
//
// Only a fleet's chaos controller calls the two fault hooks, SetPartition
// and SetDelay; idle, they cost Send two atomic loads and a delivery one.
//
// Frames a node sends to itself never touch the network (§6.1's broadcast
// includes the sender): each hosted node's i→i link is drained straight into
// the delivery callback by a goroutine of its own, so a node slow to take
// delivery holds up only its own self frames.
type MeshTransport struct {
	n    int
	name string
	lns  []net.Listener // by node; nil for nodes that accept no connections

	// links is indexed from·n + to; nil where from is not hosted here.
	links []*meshLink

	deliver                func(Frame)
	backoffMin, backoffMax time.Duration // fields so a test can stretch them

	reconnects atomic.Int64
	drops      atomic.Int64

	// The chaos hooks' state: cut[j] is set while SetPartition cuts node j
	// off (nil until the first call), delay is SetDelay's hold.
	cut   atomic.Pointer[[]bool]
	delay atomic.Int64

	mu       sync.Mutex            // guards accepted, and orders SetPartition's writers
	accepted map[net.Conn]struct{} // inbound connections, closed by Close

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// meshLink is one ordered pair's outbound half. A self link (from == to)
// uses only the queue.
type meshLink struct {
	from, to ta.NodeID
	ch       chan Frame
	// kick (capacity 1) wakes the link's goroutine when SetPeer moves the
	// address: out of a back-off earned against the old one, or a wait for
	// frames on a connection that leads nowhere now.
	kick chan struct{}

	mu   sync.Mutex
	addr string   // "" until known
	conn net.Conn // the writer's current connection; SetPeer and Close close it
}

const (
	// meshQueueDepth bounds each link's outbound queue. Closed-loop workloads keep a few frames per link in flight,
	// pipelined ones roughly one per in-flight operation, so the depth is
	// sized to the deepest pipelines pscserve drives, and to ride out a
	// peer's restart in a fleet, before Send starts dropping.
	meshQueueDepth = 8192
	meshBackoffMin = 10 * time.Millisecond
	meshBackoffMax = 640 * time.Millisecond
	meshIdlePoll   = 20 * time.Millisecond
	meshBufSize    = 32 << 10
)

func newMesh(n int, name string) *MeshTransport {
	return &MeshTransport{
		n:        n,
		name:     name,
		lns:      make([]net.Listener, n),
		links:    make([]*meshLink, n*n),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),

		backoffMin: meshBackoffMin,
		backoffMax: meshBackoffMax,
	}
}

// host opens node i's listener and creates its outbound links.
func (t *MeshTransport) host(i int, listenAddr string) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("live: listen for node %d: %w", i, err)
	}
	t.lns[i] = ln
	for to := 0; to < t.n; to++ {
		t.links[i*t.n+to] = &meshLink{from: ta.NodeID(i), to: ta.NodeID(to), ch: make(chan Frame, meshQueueDepth), kick: make(chan struct{}, 1)}
	}
	return nil
}

// hosts reports whether node i lives on this transport.
func (t *MeshTransport) hosts(i int) bool {
	return i >= 0 && i < t.n && t.links[i*t.n+i] != nil
}

// NewTCPTransport hosts all n nodes in this process, one loopback listener
// each on an ephemeral port, with every link's address known: Start
// returns with the full mesh connected.
func NewTCPTransport(n int) (*MeshTransport, error) {
	t := newMesh(n, "tcp")
	for i := 0; i < n; i++ {
		if err := t.host(i, "127.0.0.1:0"); err != nil {
			t.Close()
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		t.SetPeer(i, t.Addr(i))
	}
	return t, nil
}

// NewMeshTransport hosts node self of an n-node fleet, listening on
// listenAddr ("" selects a fresh loopback port). Peer addresses start
// unknown; the plane supplies them via SetPeer before and during the run.
func NewMeshTransport(self, n int, listenAddr string) (*MeshTransport, error) {
	if self < 0 || self >= n {
		return nil, fmt.Errorf("live: mesh node %d outside 0..%d", self, n-1)
	}
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	t := newMesh(n, "mesh-tcp")
	if err := t.host(self, listenAddr); err != nil {
		return nil, err
	}
	return t, nil
}

// Addr returns the address node i accepts peer connections on, "" if it
// accepts none here.
func (t *MeshTransport) Addr(i int) string {
	if i < 0 || i >= t.n || t.lns[i] == nil {
		return ""
	}
	return t.lns[i].Addr().String()
}

// SetPeer installs (or replaces) the address every local link to node j
// dials. Replacing an address closes the current connection and wakes the
// writer to redial at once; queued frames carry over to the new connection.
func (t *MeshTransport) SetPeer(j int, addr string) {
	if j < 0 || j >= t.n {
		return
	}
	for from := 0; from < t.n; from++ {
		l := t.links[from*t.n+j]
		if l == nil || from == j {
			continue
		}
		l.mu.Lock()
		if l.addr != addr {
			l.addr = addr
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			select {
			case l.kick <- struct{}{}:
			default:
			}
		}
		l.mu.Unlock()
	}
}

// Reconnects returns the number of successful re-dials (dials after each
// link's first) across all links — healed failures, reported rather than
// fatal.
func (t *MeshTransport) Reconnects() int64 { return t.reconnects.Load() }

// Drops returns the number of frames discarded: at a full outbound queue,
// or on a link SetPartition cut. The runtime reports it as
// Measured.SendDrops.
func (t *MeshTransport) Drops() int64 { return t.drops.Load() }

// SetPartition cuts (on=true) or heals (on=false) both directions of the
// links between peer and every node hosted here, at this end: outbound
// frames are dropped at Send, inbound ones before the delivery callback,
// a node's frames to itself never. Each cut frame is counted in Drops:
// message loss is outside the paper's model (Definition 2.3), so a
// partition is expected to be flagged, and the count is its evidence.
func (t *MeshTransport) SetPartition(peer int, on bool) {
	if peer < 0 || peer >= t.n {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := make([]bool, t.n)
	if old := t.cut.Load(); old != nil {
		copy(cut, *old)
	}
	cut[peer] = on
	t.cut.Store(&cut)
}

// SetDelay holds every frame to another node d before it joins its link's
// queue (zero heals): a delay spike. The runtime measures delay from the
// send, so a spike past d2 lands in Measured.DelayViolations. A frame whose
// link is cut when its hold ends is dropped and counted.
func (t *MeshTransport) SetDelay(d time.Duration) { t.delay.Store(int64(d)) }

// severed reports whether a partition cuts f's link, counting f as dropped
// if so. f.From may come off a socket, so it is not trusted to be a node.
func (t *MeshTransport) severed(f Frame) bool {
	c := t.cut.Load()
	if c == nil || f.From == f.To {
		return false
	}
	cut := *c
	if (uint(f.From) < uint(len(cut)) && cut[f.From]) || (uint(f.To) < uint(len(cut)) && cut[f.To]) {
		t.drops.Add(1)
		return true
	}
	return false
}

// Name describes the deployment for reports.
func (t *MeshTransport) Name() string { return t.name }

// Start installs the delivery callback, begins accepting, connects every
// link whose address is already known, and launches the writers and the
// direct-delivery loops. The callback must be safe for concurrent use and
// must not block indefinitely (the runtime's per-node inboxes are deep, and
// closed-loop workloads bound the frames in flight).
func (t *MeshTransport) Start(deliver func(Frame)) error {
	t.deliver = deliver

	for _, ln := range t.lns {
		if ln != nil {
			t.wg.Add(1)
			go t.acceptLoop(ln)
		}
	}
	for i, l := range t.links {
		if l == nil {
			continue
		}
		if i/t.n == i%t.n {
			t.wg.Add(1)
			go t.directLoop(l)
			continue
		}
		conn, err := t.connect(l)
		if err != nil {
			t.Close()
			return fmt.Errorf("live: dial %d→%d: %w", i/t.n, i%t.n, err)
		}
		t.wg.Add(1)
		go t.writeLoop(l, conn)
	}
	return nil
}

// Send enqueues the frame on its link; it may be called concurrently from
// every node after Start. A full queue drops the frame and counts it, as
// does a cut link. Under SetDelay a frame to another node joins its queue
// only when its hold ends.
func (t *MeshTransport) Send(f Frame) error {
	from, to := int(f.From), int(f.To)
	if !t.hosts(from) || to < 0 || to >= t.n {
		return fmt.Errorf("live: send on unknown pair %v→%v", f.From, f.To)
	}
	if t.severed(f) {
		return nil
	}
	if d := time.Duration(t.delay.Load()); d > 0 && from != to {
		t.wg.Add(1)
		time.AfterFunc(d, func() {
			defer t.wg.Done()
			if !t.closing() && !t.severed(f) {
				t.enqueue(f)
			}
		})
		return nil
	}
	t.enqueue(f)
	return nil
}

// enqueue puts f on its link's queue; a full queue drops it and counts it.
func (t *MeshTransport) enqueue(f Frame) {
	select {
	case t.links[int(f.From)*t.n+int(f.To)].ch <- f:
	default:
		t.drops.Add(1)
	}
}

// Close stops delivery and releases every resource. It returns once every
// goroutine and every frame SetDelay holds has finished, whatever the peers
// do: inbound connections are closed here, not waited on.
func (t *MeshTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		for _, ln := range t.lns {
			if ln != nil {
				ln.Close()
			}
		}
		t.mu.Lock()
		for c := range t.accepted {
			c.Close()
		}
		t.mu.Unlock()
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
			}
			l.mu.Unlock()
		}
	})
	t.wg.Wait()
	return nil
}

func (t *MeshTransport) closing() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// sleep waits d, or less if the transport closes; it reports whether the
// transport is still open.
func (t *MeshTransport) sleep(d time.Duration) bool {
	select {
	case <-t.done:
		return false
	case <-time.After(d):
		return true
	}
}

func (t *MeshTransport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !t.sleep(meshIdlePoll) {
				return
			}
			continue // transient accept error; keep serving
		}
		t.mu.Lock()
		if t.closing() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes one inbound connection's gob stream until it ends.
func (t *MeshTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	dec := gob.NewDecoder(bufio.NewReaderSize(conn, meshBufSize))
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil || t.closing() {
			return
		}
		if t.hosts(int(f.To)) && !t.severed(f) {
			t.deliver(f)
		}
	}
}

// directLoop drains a hosted node's link to itself straight into the
// delivery callback.
func (t *MeshTransport) directLoop(l *meshLink) {
	defer t.wg.Done()
	for {
		select {
		case f := <-l.ch:
			if !t.severed(f) {
				t.deliver(f)
			}
		case <-t.done:
			return
		}
	}
}

// connect makes one attempt at l's current address and installs the
// connection on the link. It returns (nil, nil) when there is no address
// yet, or the address changed or the transport closed while dialing.
func (t *MeshTransport) connect(l *meshLink) (net.Conn, error) {
	l.mu.Lock()
	addr := l.addr
	l.mu.Unlock()
	if addr == "" {
		return nil, nil
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.addr != addr || t.closing() {
		// Close sweeps the links after closing done, so a connection
		// installed now would belong to nobody.
		conn.Close()
		return nil, nil
	}
	l.conn = conn
	return conn, nil
}

// dial connects l, waiting for SetPeer while no address is known and backing
// off while one refuses; a moved address ends either wait and the back-off.
// It returns nil when the transport is closing.
func (t *MeshTransport) dial(l *meshLink) net.Conn {
	backoff := t.backoffMin
	for !t.closing() {
		conn, err := t.connect(l)
		if conn != nil {
			return conn
		}
		var refused <-chan time.Time
		if err != nil {
			refused = time.After(backoff)
			backoff = min(2*backoff, t.backoffMax)
		}
		select {
		case <-l.kick:
			backoff = t.backoffMin
		case <-refused:
		case <-t.done:
		}
	}
	return nil
}

// writeLoop owns one link: it redials whenever the connection breaks or
// SetPeer moves the address. conn is the connection Start made, nil for a
// link whose address was not yet known.
func (t *MeshTransport) writeLoop(l *meshLink, conn net.Conn) {
	defer t.wg.Done()
	first := conn == nil
	var carry Frame
	var carried bool
	for {
		if conn == nil {
			if conn = t.dial(l); conn == nil {
				return
			}
			if !first {
				t.reconnects.Add(1)
			}
		}
		first = false
		carry, carried = t.writeConn(l, conn, carry, carried)
		// Closing twice is harmless: SetPeer or Close may have got there
		// first.
		conn.Close()
		conn = nil
		if t.closing() {
			return
		}
	}
}

// writeConn announces the link (linkUp), then coalesces queued frames into
// batched writes on conn's gob stream until the connection breaks, the
// link's address moves, or the transport closes. f (if have) is the first
// queued frame written. The frames of a batch
// that fails are lost (possibly half-written, so they cannot safely be
// replayed on a stream the far decoder will restart); a frame picked up
// after SetPeer moved the link is returned unwritten for the next
// connection, and everything still queued carries over by itself.
func (t *MeshTransport) writeConn(l *meshLink, conn net.Conn, f Frame, have bool) (Frame, bool) {
	bw := bufio.NewWriterSize(conn, meshBufSize)
	enc := gob.NewEncoder(bw)
	if enc.Encode(Frame{From: l.from, To: l.to, Chan: ctlChan, Body: linkUp{}}) != nil || bw.Flush() != nil {
		return f, have
	}
	for {
		if !have {
			select {
			case f = <-l.ch:
				have = true
			case <-l.kick:
			case <-t.done:
				return f, false
			}
		}
		l.mu.Lock()
		moved := l.conn != conn
		l.mu.Unlock()
		if moved {
			return f, have
		}
		if !have {
			continue // a kick left over from before this connection
		}
		// Opportunistic drain: everything already queued joins the batch
		// (bufio flushes itself if a batch outgrows its buffer).
		err := enc.Encode(f)
		have = false
	drain:
		for err == nil {
			select {
			case f = <-l.ch:
				err = enc.Encode(f)
			default:
				break drain
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return f, false
		}
	}
}
