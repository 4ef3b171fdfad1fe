package exec

import (
	"cmp"
	"slices"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Sink consumes the executor's recorded event stream. It is the streaming
// counterpart of the retained trace: where Trace() hands the caller the
// whole history after the fact, a sink observes each event as it is
// committed and may discard it immediately, so run length is no longer
// bounded by memory.
//
// Ordering guarantees (the contract every executor path upholds):
//
//   - Observe is called once per recorded event, in canonical dispatch
//     order — the exact order the retained trace would hold. On the
//     sequential paths (indexed and linear) that is dispatch order; under
//     sharded execution events are buffered per lane and observed at round
//     barriers, merged in the canonical (time, fire round, firing
//     component) order, which reconstructs the sequential order (see
//     shard.go).
//   - Event times are non-decreasing across the stream, and Seq values are
//     strictly increasing and contiguous with the retained trace's
//     numbering (including runs during which recording was off; see
//     KeepTrace).
//   - Flush(bound) promises that every event with At < bound has already
//     been observed and that no future Observe will carry At < bound:
//     bound is a low-watermark. Sinks may garbage-collect any state that
//     only concerns times before bound. Flush is invoked at the end of
//     every Run/RunQuiet/Step and, under sharded execution, at every round
//     barrier, so a run driven in slices yields a steadily advancing
//     watermark.
//   - Observe and Flush are always invoked from the coordinating
//     goroutine, never concurrently, even under sharded execution.
//
// Sinks observe events with hiding already applied (hidden actions arrive
// reclassified as KindInternal), exactly as the retained trace does.
type Sink interface {
	Observe(ta.Event)
	Flush(bound simtime.Time)
}

// AddSink appends sink to the ordered sink chain: sinks observe every
// event after the retained trace is appended, in registration order.
// Sinks keep observing while KeepTrace is false — disabling retention
// disables only retention.
func (s *System) AddSink(sink Sink) {
	s.sinks = append(s.sinks, sink)
}

// observing reports whether anything consumes recorded events: the
// retained trace or a sink. When false, record takes the counting fast
// path that only advances sequence numbers.
func (s *System) observing() bool {
	return s.KeepTrace || len(s.sinks) > 0
}

// emit commits one fully-formed event: retained trace (when KeepTrace),
// then sinks, all in canonical event order. Both the sequential record
// path and the sharded barrier merge funnel through here, so every
// consumer sees one stream.
func (s *System) emit(e ta.Event) {
	if s.KeepTrace {
		if s.trace == nil {
			// Traced runs record thousands of events; start with a block
			// big enough to skip the early growth doublings.
			s.trace = make(ta.Trace, 0, 4096)
		}
		s.trace = append(s.trace, e)
	}
	for _, k := range s.sinks {
		k.Observe(e)
	}
}

// flushSinks advances every sink's low-watermark to bound.
func (s *System) flushSinks(bound simtime.Time) {
	for _, k := range s.sinks {
		k.Flush(bound)
	}
}

// StampMerge turns several FIFO streams of stamped actions into the one
// stream the Sink contract describes. It is the single place that
// contract is enforced for streams that do not come from a System's
// dispatch loop: the live recorder's per-producer rings and the fleet's
// per-daemon event streams both go through it. The caller decides which
// events are safe to emit — it alone knows its streams' lower bounds — and
// hands them over with Add; Emit then delivers them in (stamp, kind rank,
// stream, FIFO) order with contiguous Seq, and Flush forwards a watermark
// that never retreats.
type StampMerge struct {
	Sinks []Sink

	pending []stamped
	seq     int
	last    simtime.Time // stamp of the last emitted event
	flushed simtime.Time // highest watermark forwarded
	clamped int
}

type stamped struct {
	ev     ta.Event
	stream int
}

// Add queues one event of stream for the next Emit. Each stream's events
// must be added in that stream's FIFO order.
func (m *StampMerge) Add(stream int, a ta.Action, at simtime.Time, src string) {
	m.pending = append(m.pending, stamped{ev: ta.Event{Action: a, At: at, Src: src}, stream: stream})
}

// Emit delivers every queued event to the sinks and returns how many
// there were. An event stamped below the last emitted one — a stream that
// broke its own lower bound — is clamped forward to it and counted, never
// delivered out of order.
func (m *StampMerge) Emit() int {
	// Stable, so equal keys keep insertion order: FIFO within a stream.
	slices.SortStableFunc(m.pending, func(a, b stamped) int {
		if c := cmp.Compare(a.ev.At, b.ev.At); c != 0 {
			return c
		}
		if c := cmp.Compare(kindRank(a.ev.Action.Kind), kindRank(b.ev.Action.Kind)); c != 0 {
			return c
		}
		return cmp.Compare(a.stream, b.stream)
	})
	for i := range m.pending {
		e := m.pending[i].ev
		if e.At < m.last {
			e.At = m.last
			m.clamped++
		}
		m.last = e.At
		e.Seq = m.seq
		m.seq++
		for _, s := range m.Sinks {
			s.Observe(e)
		}
	}
	n := len(m.pending)
	clear(m.pending) // drop payload references until the slots are reused
	m.pending = m.pending[:0]
	return n
}

// Flush forwards bound as the low-watermark if it is above every bound
// forwarded before. The caller guarantees that none of its streams will
// produce a stamp below bound.
func (m *StampMerge) Flush(bound simtime.Time) {
	if bound <= m.flushed {
		return
	}
	m.flushed = bound
	for _, s := range m.Sinks {
		s.Flush(bound)
	}
}

// Finish ends the stream: the final watermark is the last stamp emitted
// (or the last bound forwarded, if that is later), and it is always
// forwarded, because a buffering sink ships on Flush.
func (m *StampMerge) Finish() {
	m.flushed = max(m.flushed, m.last)
	for _, s := range m.Sinks {
		s.Flush(m.flushed)
	}
}

// Emitted is the number of events delivered so far; Clamped is how many
// of them had to be clamped forward (zero when every stream kept its
// bound); Watermark is the highest bound forwarded.
func (m *StampMerge) Emitted() int            { return m.seq }
func (m *StampMerge) Clamped() int            { return m.clamped }
func (m *StampMerge) Watermark() simtime.Time { return m.flushed }

// kindRank orders equal-stamp events so an operation's invocation can
// never be observed after its response: inputs, then everything else,
// then outputs. Wall-clock stamps are nanosecond readings separated by at
// least a scheduler hand-off, so ties are theoretical — the rank exists to
// make the theoretical case harmless.
func kindRank(k ta.Kind) int {
	switch k {
	case ta.KindInput:
		return 0
	case ta.KindOutput:
		return 2
	default:
		return 1
	}
}
