package live

import (
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// recorder serializes the runtime's observable events into the exec.Sink
// contract. The simulator gets the contract's ordering for free from its
// single dispatch loop; here events originate on one goroutine per hosted
// node — the node loop stamps both the invocations it admits and the
// responses its algorithms emit — so the recorder is a sequencer: record
// reads the clock and appends the event to one bounded queue under one
// mutex, clamping the reading so stamps never decrease. Queue order is
// therefore stamp order, and a single consumer goroutine feeds the queue to
// exec.StampMerge as one stream. The producers are the node loops alone —
// one per hosted node, a handful per process — and each holds the lock for
// one clock read and one append, so one lock costs the stream little and
// buys an ordering argument that needs no per-producer bookkeeping.
//
// The low-watermark comes from the same lock: when the consumer swaps the
// queue out it takes one more clamped clock reading before unlocking. Every
// event recorded earlier is in the swapped batch and stamped at or below
// that reading; every later one stamps at or above it. The reading is thus
// exact, and it is the bound Flush hands the online checkers.
//
// Overflow policy: a full queue makes record wait until the consumer swaps
// it out — backpressure, never silent loss (the documented policy; see
// TestRecorderBackpressure). The only discarded events are ones recorded
// after flush() has been called, which cannot happen in a runtime: every
// producer is a node loop, and shutdown joins the node loops before it
// flushes. Each is still counted in drops so a report can assert
// drops == 0.
//
// Stamps are real elapsed time at the recorder, not node clock readings:
// linearizability is a real-time property, and the external observer of
// the §6.1 conditions sees invocations and responses when they cross the
// runtime's boundary. Clock imprecision and timer service latency shift
// those crossings by at most ε + ℓ, which is exactly the window
// relaxation (linearize.Options.Widen) the monitoring configuration
// grants.
//
// An invocation is stamped when the node loop makes it its port's one open
// operation, not when the client's bytes arrived: later by the inbox wait
// and by any time queued behind the port's previous operation. The
// response is stamped as the algorithm emits it, before the client can see
// it. The recorded interval is thus a sub-interval of the one the client
// observed: every precedence the client saw is in the record, the record
// may add more, so the checker is only stricter — no history it accepts
// was unacceptable under the client's own intervals.
type recorder struct {
	now   func() simtime.Time
	merge exec.StampMerge // consumer-owned

	mu     sync.Mutex
	space  sync.Cond // signalled when the consumer swaps a full queue out
	queue  []recEvent
	depth  int          // the queue's bound
	last   simtime.Time // the highest reading handed out, stamp or watermark
	closed bool

	drops atomic.Int64

	wake chan struct{}
	done chan struct{}
}

// flushEvery is roughly how many events pass between low-watermark
// flushes: often enough to keep the online checkers' windows bounded,
// rarely enough to stay off the hot path.
const flushEvery = 128

// nodeQueueDepth is the backpressure margin, per hosted node, before a node
// loop waits behind a stalled consumer, and it is sized for the checker,
// not the producer: on a single-core host a verification burst can stall
// the consumer for tens of milliseconds, and a blocked node loop misses
// timer deadlines — turning checker lag into measured delay violations. A
// node carries its whole event rate, invocations and responses, and its
// share of the queue covers roughly a second of it.
const nodeQueueDepth = 1 << 13

// newRecorder returns a recorder that stamps with now and holds at most
// depth events before record waits.
func newRecorder(now func() simtime.Time, depth int) *recorder {
	r := &recorder{
		now:   now,
		depth: depth,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	r.space.L = &r.mu
	return r
}

// start launches the consumer, which feeds sinks.
func (r *recorder) start(sinks []exec.Sink) {
	r.merge.Sinks = sinks
	go r.run()
}

// signal wakes the consumer if it is asleep.
func (r *recorder) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// flush stops the consumer and waits for it to drain every recorded event
// and advance the sinks' low-watermark. Producers must have quiesced (node
// loops joined) before the call; events recorded afterwards are counted as
// drops and discarded. Called once at shutdown.
func (r *recorder) flush() {
	r.mu.Lock()
	r.closed = true
	r.space.Broadcast()
	r.mu.Unlock()
	r.signal()
	<-r.done
}

// stamp reads the clock, clamped so no reading falls below one handed out
// before. The caller holds r.mu.
func (r *recorder) stamp() simtime.Time {
	r.last = max(r.last, r.now())
	return r.last
}

// record stamps a with real elapsed time and enqueues it, waiting while
// the queue is full. Safe for concurrent use.
func (r *recorder) record(a ta.Action, src string) {
	r.mu.Lock()
	for len(r.queue) >= r.depth && !r.closed {
		r.space.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		r.drops.Add(1)
		return
	}
	r.queue = append(r.queue, recEvent{a: a, src: src, at: r.stamp()})
	r.mu.Unlock()
	r.signal()
}

// recEvent is one queued event; Seq is assigned by the merge at emit.
type recEvent struct {
	a   ta.Action
	at  simtime.Time
	src string
}

// run is the consumer: it alone touches the merge and its sinks. Its own
// job is the swap and the watermark; ordering, Seq and the monotone
// watermark rule are exec.StampMerge's.
func (r *recorder) run() {
	defer close(r.done)
	sinceFlush := 0
	// idleFlushQuantum paces watermark-only flushes on a quiet stream: a
	// fleet daemon forwards Flush bounds to the control plane as its merge
	// watermark, and without idle flushes a node that stops producing
	// (quiesced load, partitioned link) would stall the plane's k-way
	// merge behind its last event.
	const idleFlushQuantum = simtime.Millisecond
	var batch []recEvent
	for {
		r.mu.Lock()
		batch, r.queue = r.queue, batch[:0]
		bound := r.stamp()
		final := r.closed
		if len(batch) >= r.depth {
			r.space.Broadcast()
		}
		r.mu.Unlock()
		for _, ev := range batch {
			r.merge.Add(0, ev.a, ev.at, ev.src)
		}
		clear(batch) // drop payload references until the slots are reused
		n := r.merge.Emit()
		if final {
			r.merge.Finish()
			return
		}
		if n > 0 {
			if sinceFlush += n; sinceFlush >= flushEvery {
				sinceFlush = 0
				r.merge.Flush(bound)
			}
			continue
		}
		// Idle flush: the stream is quiet but time has passed, so advance
		// the sinks' watermark anyway.
		if bound.Sub(r.merge.Watermark()) >= idleFlushQuantum {
			r.merge.Flush(bound)
		}
		select {
		case <-r.wake:
		case <-time.After(5 * time.Millisecond):
			// Periodic re-check so a missed wake can only stall the
			// consumer briefly, never forever.
		}
	}
}
