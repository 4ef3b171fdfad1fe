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

// TestRecorderBackpressure pins the overflow policy the recorder
// documents: a full producer ring parks the producer until the consumer
// drains — backpressure, never silent loss. The consumer is stalled
// inside a gated sink while a producer pushes far past its ring
// capacity; the producer must stop making progress (blocked in push, not
// discarding), and once the sink is released every event must arrive in
// order with zero drops. Events recorded after flush are the one
// sanctioned discard, and each must be counted.
func TestRecorderBackpressure(t *testing.T) {
	rec := newRecorder()
	const depth = 4
	const total = 64
	p := rec.producer(depth)
	sink := &gatedSink{release: make(chan struct{})}
	sink.flushAfter = map[int][]simtime.Time{}
	rec.start(time.Now(), []exec.Sink{sink})

	recorded := make(chan int, total)
	go func() {
		for i := 0; i < total; i++ {
			p.record(testAction(0, i), "test")
			recorded <- i
		}
		close(recorded)
	}()

	// With the consumer stuck in Observe it drains the ring at most once
	// before stalling, so the producer can complete only a handful of
	// records (one drained batch plus one ring fill) before push parks
	// it. If all 64 sail through a depth-4 ring behind a blocked sink,
	// events were dropped or buffered without bound — either way the
	// policy is broken.
	seen := 0
wait:
	for {
		select {
		case _, ok := <-recorded:
			if !ok {
				t.Fatalf("producer pushed all %d events through a depth-%d ring behind a blocked sink", total, depth)
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
	p.record(testAction(0, total), "test")
	if got := rec.drops.Load(); got != 1 {
		t.Fatalf("post-flush record: drops = %d, want 1", got)
	}
	if len(sink.events) != total {
		t.Fatalf("post-flush record leaked into the sink")
	}
}

// TestRecorderConcurrentProducersStampOrder is the sharded recorder's
// equivalence property, run meaningfully under -race (tier-2 and CI):
// N producers recording concurrently must yield exactly the stream a
// sequential single-ring recorder would have produced for the same
// stamped events — every event delivered exactly once, the merged At
// non-decreasing with Seq dense, each producer's events in FIFO order,
// and every Flush watermark a true low-watermark for what follows.
func TestRecorderConcurrentProducersStampOrder(t *testing.T) {
	const producers = 8
	const perProducer = 500
	rec := newRecorder()
	ps := make([]*producer, producers)
	for i := range ps {
		// Small rings so the test exercises park/unpark under contention,
		// not just the uncontended fast path.
		ps[i] = rec.producer(32)
	}
	sink := newCaptureSink()
	rec.start(time.Now(), []exec.Sink{sink})

	var wg sync.WaitGroup
	for pi, p := range ps {
		wg.Add(1)
		go func(pi int, p *producer) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p.record(testAction(pi, i), "test")
			}
		}(pi, p)
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
