// Package spsc holds the repository's one single-producer single-consumer
// hand-off queue. Its one use is the live recorder's per-node event rings.
package spsc

import (
	"sync"
	"sync/atomic"
)

// Ring is a bounded single-producer single-consumer queue: a power-of-two
// ring indexed by free-running atomic head/tail counters, so the
// uncontended fast path is two atomic loads and a store on each side.
// When the ring runs full the producer parks on the condition variable —
// backpressure, never loss; the consumer never blocks. The park flag and
// the re-checked condition both go through sequentially-consistent
// atomics, so a pop after the flag was read false is necessarily seen by
// the producer's re-check — no lost wakeups.
//
// Push is the producer's only method; Peek and Pop belong to the
// consumer. Each side is one goroutine at a time.
type Ring[T any] struct {
	buf  []T
	mask uint64

	head atomic.Uint64 // next slot to pop (consumer-owned)
	tail atomic.Uint64 // next slot to push (producer-owned)

	mu       sync.Mutex
	cond     *sync.Cond
	prodPark atomic.Bool // producer is asleep (full ring)
}

// New returns a ring holding at least capacity entries (rounded up to a
// power of two).
func New[T any](capacity int) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Push appends v, parking while the ring is full.
func (r *Ring[T]) Push(v T) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.buf)) {
			r.buf[t&r.mask] = v
			r.tail.Store(t + 1)
			return
		}
		r.mu.Lock()
		r.prodPark.Store(true)
		for r.tail.Load()-r.head.Load() == uint64(len(r.buf)) {
			r.cond.Wait()
		}
		r.prodPark.Store(false)
		r.mu.Unlock()
	}
}

// Peek returns the oldest entry without consuming it, or false when the
// ring is empty. It never blocks.
func (r *Ring[T]) Peek() (T, bool) {
	h := r.head.Load()
	if r.tail.Load() == h {
		var zero T
		return zero, false
	}
	return r.buf[h&r.mask], true
}

// Pop consumes the entry a successful Peek returned and unparks a
// full-ring producer. It never blocks.
func (r *Ring[T]) Pop() {
	r.head.Store(r.head.Load() + 1)
	if r.prodPark.Load() {
		r.wake()
	}
}

func (r *Ring[T]) wake() {
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}
