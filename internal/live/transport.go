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
