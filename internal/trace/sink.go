package trace

import (
	"fmt"
	"hash/fnv"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file provides the stock event sinks of the streaming pipeline
// (exec.Sink). Each satisfies the contract structurally — Observe(ta.Event)
// plus Flush(bound) — so this package needs no dependency on the executor.
//
//   - Hash folds the stream into the golden trace fingerprint without
//     retaining anything: O(1) memory regardless of run length.
//   - Ring keeps only the last N events, the post-mortem tail for failures
//     in long runs where full retention is infeasible.

// Hash incrementally computes the FNV-1a 64 fingerprint of the event
// stream in exactly the format of the golden-trace tests: one
// "label|kind|at|seq|src" line per event. Hashing a streamed run with
// KeepTrace disabled must yield the same sum as hashing the retained
// trace of an identical run — the differential tests rely on it.
type Hash struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	// N counts observed events.
	N int
}

// NewHash returns an empty stream hasher.
func NewHash() *Hash { return &Hash{h: fnv.New64a()} }

// Observe folds the event into the running hash.
func (s *Hash) Observe(e ta.Event) {
	fmt.Fprintf(s.h, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
	s.N++
}

// Flush is a no-op: the hash carries no windowed state.
func (s *Hash) Flush(simtime.Time) {}

// Sum64 returns the fingerprint of the events observed so far.
func (s *Hash) Sum64() uint64 { return s.h.Sum64() }

// HashTrace returns the fingerprint a Hash sink would compute for a fully
// retained trace — the batch counterpart, for differential comparisons.
func HashTrace(tr ta.Trace) uint64 {
	s := NewHash()
	for _, e := range tr {
		s.Observe(e)
	}
	return s.Sum64()
}

// Ring is a bounded sink retaining only the most recent events: the
// post-mortem tail of a long streaming run.
type Ring struct {
	buf   []ta.Event
	next  int
	full  bool
	total int
}

// NewRing returns a ring keeping the last n events (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]ta.Event, n)}
}

// Observe records the event, evicting the oldest once the ring is full.
func (r *Ring) Observe(e ta.Event) {
	r.buf[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Flush is a no-op: the ring's bound is its capacity, not the watermark.
func (r *Ring) Flush(simtime.Time) {}

// Total returns how many events have been observed overall.
func (r *Ring) Total() int { return r.total }

// Tail returns the retained events, oldest first, as a fresh slice.
func (r *Ring) Tail() ta.Trace {
	if !r.full {
		return append(ta.Trace(nil), r.buf[:r.next]...)
	}
	out := make(ta.Trace, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
