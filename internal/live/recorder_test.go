package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// captureSink records the merged stream as the consumer emits it,
// interleaved with the Flush watermarks. The recorder's flush() waits for
// the consumer goroutine to exit (the done channel), so tests may read
// the fields without locking once flush has returned.
type captureSink struct {
	events []ta.Event
	// flushAfter[i] holds the watermarks issued after i events had been
	// observed — the position lets tests check the low-watermark contract
	// against what followed.
	flushAfter map[int][]simtime.Time
}

func newCaptureSink() *captureSink {
	return &captureSink{flushAfter: map[int][]simtime.Time{}}
}

func (c *captureSink) Observe(e ta.Event) { c.events = append(c.events, e) }
func (c *captureSink) Flush(bound simtime.Time) {
	c.flushAfter[len(c.events)] = append(c.flushAfter[len(c.events)], bound)
}

func testAction(p, i int) ta.Action {
	return ta.Action{Name: "EV", Node: ta.NodeID(p), Kind: ta.KindInternal, Payload: fmt.Sprintf("p%d.%d", p, i)}
}

// gatedSink blocks every Observe until released, stalling the merge
// consumer mid-emit the way a long verification burst does in a live run.
type gatedSink struct {
	captureSink
	release chan struct{}
}

func (g *gatedSink) Observe(e ta.Event) {
	<-g.release
	g.captureSink.Observe(e)
}

// wallClock is the recorder's clock in a runtime: real time since now.
func wallClock() func() simtime.Time {
	epoch := time.Now()
	return func() simtime.Time { return Since(epoch) }
}

// TestRecorderBackpressure pins the overflow policy the recorder
// documents: a full queue makes the producer wait until the consumer
// swaps it out — backpressure, never silent loss. The consumer is stalled
// inside a gated sink while a producer records far past the queue's
// capacity; the producer must stop making progress (blocked in record, not
// discarding), and once the sink is released every event must arrive in
// order with zero drops. Events recorded after flush are the one
// sanctioned discard, and each must be counted.
func TestRecorderBackpressure(t *testing.T) {
	const depth = 4
	const total = 64
	rec := newRecorder(wallClock(), depth)
	sink := &gatedSink{release: make(chan struct{})}
	sink.flushAfter = map[int][]simtime.Time{}
	rec.start([]exec.Sink{sink})

	recorded := make(chan int, total)
	go func() {
		for i := 0; i < total; i++ {
			rec.record(testAction(0, i), "test")
			recorded <- i
		}
		close(recorded)
	}()

	// With the consumer stuck in Observe it swaps the queue out at most
	// once before stalling, so the producer can complete only a handful of
	// records (one swapped batch plus one queue fill) before record waits.
	// If all 64 sail through a depth-4 queue behind a blocked sink,
	// events were dropped or buffered without bound — either way the
	// policy is broken.
	seen := 0
wait:
	for {
		select {
		case _, ok := <-recorded:
			if !ok {
				t.Fatalf("producer recorded all %d events through a depth-%d queue behind a blocked sink", total, depth)
			}
			seen++
		case <-time.After(200 * time.Millisecond):
			break wait // no progress for 200ms: producer is blocked
		}
	}
	if seen >= total {
		t.Fatalf("producer completed %d records behind a blocked sink, want a blocked producer", seen)
	}
	if got := rec.drops.Load(); got != 0 {
		t.Fatalf("drops = %d while producer should be blocked, want 0", got)
	}

	close(sink.release)
	for range recorded {
	}
	rec.flush()

	if got := rec.drops.Load(); got != 0 {
		t.Fatalf("drops = %d, want 0 (policy is backpressure, not loss)", got)
	}
	if len(sink.events) != total {
		t.Fatalf("sink observed %d events, want %d", len(sink.events), total)
	}
	for i, e := range sink.events {
		if want := fmt.Sprintf("p0.%d", i); e.Action.Payload != want {
			t.Fatalf("event %d out of order: payload %v, want %s", i, e.Action.Payload, want)
		}
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}

	// After flush the recorder is closed: further records are discarded
	// but never silently — the drop counter owns them.
	rec.record(testAction(0, total), "test")
	if got := rec.drops.Load(); got != 1 {
		t.Fatalf("post-flush record: drops = %d, want 1", got)
	}
	if len(sink.events) != total {
		t.Fatalf("post-flush record leaked into the sink")
	}
}

// TestRecorderConcurrentProducersStampOrder is the recorder's ordering
// property, run meaningfully under -race (tier-2 and CI): N producers
// recording concurrently must yield one stream — every event delivered
// exactly once, the merged At non-decreasing with Seq dense, each
// producer's events in FIFO order, and every Flush watermark a true
// low-watermark for what follows.
func TestRecorderConcurrentProducersStampOrder(t *testing.T) {
	const producers = 8
	const perProducer = 500
	// A small queue so the test exercises backpressure under contention,
	// not just the uncontended fast path.
	rec := newRecorder(wallClock(), 32)
	sink := newCaptureSink()
	rec.start([]exec.Sink{sink})

	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				rec.record(testAction(pi, i), "test")
			}
		}(pi)
	}
	wg.Wait()
	rec.flush()

	if got := rec.drops.Load(); got != 0 {
		t.Fatalf("drops = %d, want 0", got)
	}
	if len(sink.events) != producers*perProducer {
		t.Fatalf("sink observed %d events, want %d", len(sink.events), producers*perProducer)
	}
	next := make([]int, producers)
	var lastAt simtime.Time
	for i, e := range sink.events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d, want dense sequence", i, e.Seq)
		}
		if e.At < lastAt {
			t.Fatalf("event %d stamped %v after %v: merge is not stamp-ordered", i, e.At, lastAt)
		}
		lastAt = e.At
		pi := int(e.Action.Node)
		if want := fmt.Sprintf("p%d.%d", pi, next[pi]); e.Action.Payload != want {
			t.Fatalf("producer %d out of FIFO order at merged index %d: payload %v, want %s", pi, i, e.Action.Payload, want)
		}
		next[pi]++
	}
	for pi, n := range next {
		if n != perProducer {
			t.Fatalf("producer %d delivered %d of %d events", pi, n, perProducer)
		}
	}
	// Low-watermark contract: every event observed after a Flush(bound)
	// must be stamped at or after that bound.
	for pos, bounds := range sink.flushAfter {
		for _, b := range bounds {
			for _, e := range sink.events[pos:] {
				if e.At < b {
					t.Fatalf("event stamped %v observed after watermark %v", e.At, b)
				}
			}
		}
	}
}

// fakeClock is a settable recorder clock. Once armed, the next reading
// waits at the gate until the test releases it, so a test can hold the
// consumer inside its watermark reading.
type fakeClock struct {
	mu     sync.Mutex
	at     simtime.Time
	gate   chan struct{}
	parked chan struct{}
}

func (c *fakeClock) set(at simtime.Time) {
	c.mu.Lock()
	c.at = at
	c.mu.Unlock()
}

// arm makes the next reading wait until release is closed; parked closes
// when it does.
func (c *fakeClock) arm() (parked <-chan struct{}, release chan<- struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gate, c.parked = make(chan struct{}), make(chan struct{})
	return c.parked, c.gate
}

func (c *fakeClock) now() simtime.Time {
	c.mu.Lock()
	gate, parked := c.gate, c.parked
	c.gate = nil
	c.mu.Unlock()
	if gate != nil {
		close(parked)
		<-gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

// syncSink is a captureSink a test may read while the consumer runs.
type syncSink struct {
	mu sync.Mutex
	captureSink
	watermark simtime.Time
}

func (s *syncSink) Observe(e ta.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captureSink.Observe(e)
}

func (s *syncSink) Flush(bound simtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captureSink.Flush(bound)
	s.watermark = bound
}

// waitFor polls until cond holds of the sink, failing after a while.
func (s *syncSink) waitFor(t *testing.T, what string, cond func(*syncSink) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		ok := cond(s)
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRecorderWatermark drives the recorder's clock by hand. With nothing
// recorded the bound follows the clock: the idle flush a fleet's liveness
// rule relies on. A clock stepped backward never makes a stamp decrease.
// And the consumer's watermark reading is taken under the recorder's lock:
// held inside that reading, it keeps a producer out until the reading is
// handed out, so the producer's event stamps at or above it, and no event
// observed after a Flush(bound) is stamped below bound.
func TestRecorderWatermark(t *testing.T) {
	msAt := func(n int) simtime.Time { return simtime.Zero.Add(simtime.Duration(n) * ms) }
	clk := &fakeClock{at: msAt(10)}
	rec := newRecorder(clk.now, 16)
	sink := &syncSink{captureSink: *newCaptureSink()}
	rec.start([]exec.Sink{sink})

	for _, at := range []simtime.Time{msAt(10), msAt(12), msAt(14)} {
		clk.set(at)
		sink.waitFor(t, fmt.Sprintf("an idle watermark at %v", at), func(s *syncSink) bool { return s.watermark >= at })
	}

	rec.record(testAction(0, 0), "test")
	clk.set(msAt(15))
	rec.record(testAction(0, 1), "test")
	clk.set(msAt(9)) // a backward step
	rec.record(testAction(0, 2), "test")
	sink.waitFor(t, "three events", func(s *syncSink) bool { return len(s.events) == 3 })

	parked, release := clk.arm()
	select {
	case <-parked: // no producer runs, so this is the consumer's reading
	case <-time.After(5 * time.Second):
		t.Fatal("the consumer never read the clock")
	}
	recorded := make(chan struct{})
	go func() {
		rec.record(testAction(0, 3), "test")
		close(recorded)
	}()
	select {
	case <-recorded: // only if the reading is outside the lock
	case <-time.After(100 * time.Millisecond):
	}
	clk.set(msAt(20))
	close(release)
	<-recorded
	rec.flush()

	if got := rec.merge.Clamped(); got != 0 {
		t.Errorf("the merge clamped %d stamps: the recorder handed it a decreasing one", got)
	}
	want := []simtime.Time{msAt(14), msAt(15), msAt(15), msAt(20)}
	if len(sink.events) != len(want) {
		t.Fatalf("sink observed %d events, want %d", len(sink.events), len(want))
	}
	for i, e := range sink.events {
		if p := fmt.Sprintf("p0.%d", i); e.Action.Payload != p || e.At != want[i] {
			t.Errorf("event %d: %v at %v, want %s at %v", i, e.Action.Payload, e.At, p, want[i])
		}
	}
	for pos, bounds := range sink.flushAfter {
		for _, b := range bounds {
			for _, e := range sink.events[pos:] {
				if e.At < b {
					t.Errorf("event %v stamped %v observed after watermark %v", e.Action.Payload, e.At, b)
				}
			}
		}
	}
}
