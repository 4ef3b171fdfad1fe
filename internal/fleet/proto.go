// Package fleet is the multi-process runtime: a control plane that
// provisions one OS process per node (cmd/pscnode, hosting the unmodified
// register and detector programs on the live runtime), replaces a daemon
// whose process exits or that its peers' heartbeat detectors SUSPECT while
// its own event stream stays silent, re-wires its peers, and injects
// orchestrated faults — crash/restart, network partitions, delay spikes
// past d2, clock steps past ε — each carrying an expected outcome
// (tolerated vs. flagged) that the run's evidence must match.
//
// Every daemon streams its recorded events back to the plane, where a
// k-way watermark merge (FanIn) reassembles one global stream and feeds
// the same register.Monitor → linearize.Sharded stack that checks
// single-process runs: real multi-process traffic is verified online,
// exactly as loopback traffic is.
package fleet

import (
	"bufio"
	"encoding/gob"
	"net"
	"sync"
	"time"

	"psclock/internal/live"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func init() {
	// Recorded actions cross the control connection with their payloads as
	// interface values: detector SUSPECT/RESTORE carry the peer's NodeID
	// (register.Value is registered by the register package already).
	gob.Register(ta.NodeID(0))
}

// wireEvent is one recorded action in flight from daemon to plane; Src
// and Seq are reassigned plane-side (Seq must be global, and Src encodes
// the daemon slot).
type wireEvent struct {
	Action ta.Action
	At     simtime.Time
}

// envelope is the single message type both directions of a control
// connection exchange; exactly one field is non-nil per message. gob
// encodes nil pointers as absent, so the envelope costs what its one
// member costs.
type envelope struct {
	// daemon → plane
	Hello  *msgHello
	Beat   *msgBeat
	Events *msgEvents
	Ready  *msgReady
	Bye    *msgBye

	// plane → daemon
	Peers    *msgPeers
	Fault    *msgFault
	Shutdown *msgShutdown
}

// msgHello is the daemon's first message: who it is and where it listens.
type msgHello struct {
	Node        int
	Incarnation int
	Pid         int
	// NodeAddr is the mesh (inter-node) listen address; ClientAddr is the
	// register client-protocol address.
	NodeAddr   string
	ClientAddr string
}

// msgBeat carries the daemon's runtime measurements so far to Plane.Stats
// every beatPeriod; it is not a liveness proof.
type msgBeat struct {
	Measured live.Measured
}

// beatPeriod is the msgBeat cadence; the chaos runner waits two of them.
const beatPeriod = 100 * time.Millisecond

// msgEvents carries a batch of recorded events plus the daemon recorder's
// flush watermark: every event in this and future batches is stamped
// ≥ the previous watermark, and no future event will be stamped below
// Watermark — the plane's merge bound.
type msgEvents struct {
	Events    []wireEvent
	Watermark simtime.Time
}

// msgReady marks the daemon serviceable: initial start settled, or (for a
// restarted incarnation) the registers of live peer From restored — its
// links up at Wired (W), the copy with Updates pending updates applied at
// Applied, on the fleet's timeline. The plane publishes the daemon's client
// address only after Ready.
type msgReady struct {
	Wired, Applied simtime.Time
	From, Updates  int
}

// msgBye is the graceful-shutdown farewell with final measurements; its
// absence at process exit is how the plane distinguishes a crash.
type msgBye struct {
	Measured live.Measured
}

// msgPeers re-announces every node's mesh address ("" = down).
type msgPeers struct {
	Addrs []string
}

// msgFault commands the daemon's chaos hooks.
type msgFault struct {
	// PartitionPeer ≥ 0 cuts (On) or heals (!On) the link to that peer,
	// enforced at this end; the plane commands both ends.
	PartitionPeer int
	PartitionOn   bool
	// SetDelay replaces the outbound extra delay with DelayUS µs.
	SetDelay bool
	DelayUS  int64
	// SetStep replaces the node clock's step offset with StepUS µs.
	SetStep bool
	StepUS  int64
}

// msgShutdown asks for a graceful exit: drain, report Bye, terminate.
type msgShutdown struct{}

// ctlConn wraps one control connection with a write lock (reads have a
// single owner per side; writes come from beat tickers, event forwarders,
// and command paths concurrently).
type ctlConn struct {
	conn net.Conn
	bw   *bufio.Writer
	dec  *gob.Decoder

	wmu sync.Mutex
	enc *gob.Encoder
}

func newCtlConn(conn net.Conn) *ctlConn {
	bw := bufio.NewWriterSize(conn, 64<<10)
	return &ctlConn{
		conn: conn,
		bw:   bw,
		dec:  gob.NewDecoder(bufio.NewReaderSize(conn, 64<<10)),
		enc:  gob.NewEncoder(bw),
	}
}

// send encodes and flushes one envelope.
func (c *ctlConn) send(e envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.Encode(e); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv decodes the next envelope (single-reader side only).
func (c *ctlConn) recv() (envelope, error) {
	var e envelope
	err := c.dec.Decode(&e)
	return e, err
}

func (c *ctlConn) close() { c.conn.Close() }
