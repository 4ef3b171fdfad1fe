package live

import (
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Frame is one message on the wire between live nodes. SentClock is the
// sender's clock reading at the SENDMSG action — the tag the send buffer
// S_ij,ε attaches (§4.2.1), which the receiver's hold queue compares
// against its own clock (the receive buffer R_ji,ε). SentReal is the
// sender's real elapsed time at the send, used only for delay measurement:
// within one process all nodes share the runtime's monotonic epoch, so
// receive-side real time minus SentReal is the true link delay. Chan is
// the logical register channel: many register instances multiplex one
// physical link per node pair, and the [d1, d2] delay measurement and the
// receive buffer's clock-tag hold apply per logical channel.
type Frame struct {
	From, To  ta.NodeID
	Chan      int
	SentClock simtime.Time
	SentReal  simtime.Time
	Body      any
}

// Transport moves frames between nodes. Start installs the delivery
// callback and begins accepting; Send may be called concurrently from
// every node goroutine after Start; Close stops delivery and releases
// resources. The delivery callback must be safe for concurrent use and
// must not block indefinitely (the runtime's per-node inboxes are deep,
// and closed-loop workloads bound the frames in flight). It is an
// interface for one reason: a runtime holds either a MeshTransport or the
// FaultTransport wrapping one.
type Transport interface {
	Start(deliver func(Frame)) error
	Send(f Frame) error
	Close() error
	// Reconnects counts successful link re-dials and Drops the frames
	// discarded, at a full outbound queue or on a cut link; the runtime
	// folds both into Measured.
	Reconnects() int64
	Drops() int64
}
