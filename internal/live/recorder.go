package live

import (
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/spsc"
	"psclock/internal/ta"
)

// recorder serializes the runtime's observable events into the exec.Sink
// contract. The simulator gets the contract's ordering for free from its
// single dispatch loop; here events originate on one goroutine per hosted
// node — the node loop stamps both the invocations it admits and the
// responses its algorithms emit — and at 10^4+ ops/s a single
// mutex-guarded queue would serialize every node through one cache line.
// Instead each node owns a lock-free SPSC ring (spsc.Ring) — exactly one
// ring per hosted node, nothing else — and a single consumer goroutine
// merges the rings into one stream in canonical stamp order through
// exec.StampMerge.
//
// The merge is made sound by a per-ring stamp floor: before reading the
// clock for an event's stamp, the producer publishes a "busy" flag
// carrying its previous stamp; the actual stamp replaces the floor before
// the push and the flag clears after it. The consumer computes a safe
// bound as min(consumer's own clock reading, every busy ring's floor) and
// emits only events stamped at or before the bound: an idle-at-read ring
// can only produce future stamps at or after the consumer's reading
// (sequentially-consistent atomics order the producer's later clock read
// after the consumer's), and a busy ring's in-flight stamp is at least
// its floor. Everything within the bound goes to exec.StampMerge, which
// owns the ordering, Seq and watermark rules of the Sink contract; the
// bound doubles as the low-watermark Flush hands the online checkers.
//
// Overflow policy: a full ring parks its producer until the consumer
// drains — backpressure, never silent loss (the documented policy; see
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
	epoch time.Time
	merge exec.StampMerge // consumer-owned

	mu      sync.Mutex // guards producer registration before start
	prods   []*producer
	started bool

	closed atomic.Bool
	drops  atomic.Int64

	wake chan struct{}
	done chan struct{}
}

// flushEvery is roughly how many events pass between low-watermark
// flushes: often enough to keep the online checkers' windows bounded,
// rarely enough to stay off the hot path.
const flushEvery = 128

// nodeRingDepth is the backpressure margin before a node loop parks behind
// a stalled consumer, and it is sized for the checker, not the producer: on
// a single-core host a verification burst can stall the consumer for tens
// of milliseconds, and a blocked node loop misses timer deadlines — turning
// checker lag into measured delay violations. A node's ring carries its
// whole event rate, invocations and responses, and covers roughly a second
// of it.
const nodeRingDepth = 1 << 13

func newRecorder() *recorder {
	return &recorder{
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// producer registers a new producer ring. All producers must be
// registered before start: Runtime.Start registers one per hosted node and
// then starts the recorder.
func (r *recorder) producer(depth int) *producer {
	p := &producer{rec: r, ring: spsc.New[recEvent](depth)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		panic("live: recorder producer registered after start")
	}
	r.prods = append(r.prods, p)
	return p
}

// start anchors the epoch, freezes the producer set, and launches the
// merge consumer.
func (r *recorder) start(epoch time.Time, sinks []exec.Sink) {
	r.mu.Lock()
	r.epoch = epoch
	r.merge.Sinks = sinks
	r.started = true
	r.mu.Unlock()
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
	if r.closed.Swap(true) {
		<-r.done
		return
	}
	r.signal()
	<-r.done
}

// producer is one registered event source: a single goroutine stamping
// and pushing events onto its own ring. The per-producer monotone clamp
// plus the merge bound give the global stream its ordering. state carries
// the producer's stamp floor for that bound: (last-or-current stamp << 1)
// | mid-record flag.
type producer struct {
	rec   *recorder
	ring  *spsc.Ring[recEvent]
	state atomic.Int64
	last  simtime.Time
}

// record stamps a with real elapsed time and enqueues it. Single
// goroutine per producer; see recorder for the floor protocol.
func (p *producer) record(a ta.Action, src string) {
	r := p.rec
	if r.closed.Load() {
		r.drops.Add(1)
		return
	}
	// Announce "busy" with the previous stamp as the floor BEFORE reading
	// the clock: the consumer either sees the flag (and bounds the merge
	// at the floor) or read its own clock before ours (making its bound
	// safe for the stamp we are about to take).
	p.state.Store(int64(p.last)<<1 | 1)
	at, err := simtime.TimeFromWall(time.Since(r.epoch))
	if err != nil || at < p.last {
		at = p.last
	}
	p.last = at
	p.state.Store(int64(at)<<1 | 1)
	p.ring.Push(recEvent{a: a, src: src, at: at})
	p.state.Store(int64(at) << 1)
	r.signal()
}

// recEvent is one ring entry; Seq is assigned by the merge at emit.
type recEvent struct {
	a   ta.Action
	at  simtime.Time
	src string
}

// run is the merge consumer: it alone touches the merge and its sinks.
// Its own job is the safe bound; ordering, Seq and the monotone watermark
// are exec.StampMerge's.
func (r *recorder) run() {
	defer close(r.done)
	sinceFlush := 0
	// idleFlushQuantum paces watermark-only flushes on a quiet stream: a
	// fleet daemon forwards Flush bounds to the control plane as its merge
	// watermark, and without idle flushes a node that stops producing
	// (quiesced load, partitioned link) would stall the plane's k-way
	// merge behind its last event.
	const idleFlushQuantum = simtime.Millisecond
	for {
		// Consumer clock first, then the per-ring states: any producer
		// observed idle after this reading can only stamp at or after it.
		// The bound must be final before ANY ring is drained: a busy ring's
		// floor constrains what is safe to emit from every other ring, not
		// just the ones scanned after it.
		bound := simtime.Never
		final := r.closed.Load()
		if !final {
			// When closed, producers have quiesced: everything still ringed
			// is the tail of the stream, and all of it merges.
			if now, err := simtime.TimeFromWall(time.Since(r.epoch)); err == nil {
				bound = now
			}
			for _, p := range r.prods {
				if st := p.state.Load(); st&1 == 1 {
					bound = min(bound, simtime.Time(st>>1))
				}
			}
		}
		heldBack := false
		for pi, p := range r.prods {
			for {
				ev, ok := p.ring.Peek()
				if !ok || ev.at > bound {
					heldBack = heldBack || ok
					break
				}
				p.ring.Pop()
				r.merge.Add(pi, ev.a, ev.at, ev.src)
			}
		}
		n := r.merge.Emit()
		if final {
			r.merge.Finish()
			return
		}
		if n > 0 {
			// bound is a true low-watermark: every emitted event was ≤ bound
			// and every future stamp is ≥ bound.
			if sinceFlush += n; sinceFlush >= flushEvery {
				sinceFlush = 0
				r.merge.Flush(bound)
			}
			continue
		}
		if heldBack {
			// Heads exist but are stamped past the bound (pushed after
			// our clock read, or behind a mid-record producer's floor);
			// the next pass reads a later clock. Yield rather than spin.
			// An event pushed after its ring was scanned is not seen here:
			// its producer's signal ends the wait below at once.
			time.Sleep(20 * time.Microsecond)
			continue
		}
		// Idle flush: the stream is quiet but time has passed, so advance
		// the sinks' watermark anyway. bound can sit below the last flush
		// here (a busy producer's old floor); StampMerge.Flush ignores a
		// watermark that would retreat.
		if bound.Sub(r.merge.Watermark()) >= idleFlushQuantum {
			r.merge.Flush(bound)
		}
		select {
		case <-r.wake:
		case <-time.After(5 * time.Millisecond):
			// Periodic re-check so a missed wake can only stall the
			// merge briefly, never forever.
		}
	}
}
