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
// the same judging stack (live.Verdict: one online checker per register,
// inline) that checks single-process runs: real multi-process traffic is
// verified online, exactly as loopback traffic is.
package fleet

import (
	"bufio"
	"encoding/gob"
	"io"
	"reflect"
	"sync"
	"time"

	"psclock/internal/live"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func init() {
	// Recorded actions cross the control channel with their payloads as
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
// channel exchange; exactly one field is non-nil per message. gob encodes
// nil pointers as absent, so the envelope costs what its one member costs.
type envelope struct {
	// daemon → plane
	Hello  *msgHello
	Beat   *msgBeat
	Events *msgEvents
	Ready  *msgReady
	Bye    *msgBye

	// plane → daemon; Config first and once
	Config   *DaemonConfig
	Peers    *msgPeers
	Fault    *msgFault
	Shutdown *msgShutdown
}

// kind names the envelope's non-nil member, for an error about it.
func (e envelope) kind() string {
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsNil() {
			return v.Type().Field(i).Name
		}
	}
	return "an empty envelope"
}

// msgHello is the daemon's first message: its mesh (inter-node) listen
// address, sent before the runtime is built, so the peers re-dial while it
// builds. The channel it arrives on says which incarnation sent it.
type msgHello struct {
	NodeAddr string
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
// Applied, on the fleet's timeline. It carries the register client-protocol
// address, which the plane publishes from then on.
type msgReady struct {
	ClientAddr     string
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

// ctlConn is one end of a control channel, the daemon's stdin and stdout,
// with a write lock (reads have a single owner per side; writes come from
// beat tickers, event forwarders, and command paths concurrently).
type ctlConn struct {
	dec *gob.Decoder

	wmu sync.Mutex
	w   io.Writer
	bw  *bufio.Writer
	enc *gob.Encoder
}

func newCtlConn(r io.Reader, w io.Writer) *ctlConn {
	bw := bufio.NewWriterSize(w, 64<<10)
	return &ctlConn{
		dec: gob.NewDecoder(bufio.NewReaderSize(r, 64<<10)),
		w:   w,
		bw:  bw,
		enc: gob.NewEncoder(bw),
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

// close ends the channel's write direction: at the plane, the daemon's
// stdin, whose EOF drains the daemon. The read direction ends when the
// other side closes its own.
func (c *ctlConn) close() {
	if wc, ok := c.w.(io.Closer); ok {
		wc.Close()
	}
}
