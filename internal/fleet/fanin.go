package fleet

import (
	"strconv"
	"sync"

	"psclock/internal/exec"
	"psclock/internal/simtime"
)

// FanIn merges the per-daemon event streams back into one globally
// stamp-ordered stream for the exec.Sink stack — the cross-process
// analogue of the live recorder's ring merge. Each daemon's stream is
// FIFO and carries a watermark (its recorder's flush bound): every future
// event from that daemon is stamped at or above it. An event is safe to
// emit once its stamp is at or below the minimum watermark over all live
// streams; a dead daemon's watermark is +∞ (it will never produce again),
// and a replacement incarnation re-enters with a floor at its spawn
// instant.
//
// All stamps share one timeline because every process anchors its
// recorder at the plane's epoch and stamps with the host's wall clock.
// Cross-process clock imperfections could still produce an event below
// the merge frontier; exec.StampMerge, which owns the ordering, Seq and
// watermark rules, clamps such events forward and counts them (Clamped) —
// expected zero on one host. What is the fan-in's own is the safe bound:
// the minimum watermark over the live streams.
type FanIn struct {
	mu      sync.Mutex
	streams []faninStream
	merge   exec.StampMerge
	srcs    []string
}

type faninStream struct {
	queue     []wireEvent
	watermark simtime.Time
}

// NewFanIn returns a merge over n daemon streams feeding sinks, which the
// FanIn alone observes from then on (single consumer, like the recorder).
func NewFanIn(n int, sinks []exec.Sink) *FanIn {
	f := &FanIn{streams: make([]faninStream, n), merge: exec.StampMerge{Sinks: sinks}, srcs: make([]string, n)}
	for i := range f.srcs {
		f.srcs[i] = "fleet(" + strconv.Itoa(i) + ")"
	}
	return f
}

// Push appends a daemon's event batch and advances its watermark, then
// emits whatever became safe.
func (f *FanIn) Push(daemon int, events []wireEvent, watermark simtime.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &f.streams[daemon]
	s.queue = append(s.queue, events...)
	if watermark > s.watermark {
		s.watermark = watermark
	}
	f.emit()
}

// MarkDead freezes a daemon's stream: its queued tail still emits, and
// its watermark stops constraining the merge (nothing more is coming).
func (f *FanIn) MarkDead(daemon int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.streams[daemon].watermark = simtime.Never
	f.emit()
}

// Watermark returns daemon's stream watermark: +∞ once it is dead.
func (f *FanIn) Watermark(daemon int) simtime.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.streams[daemon].watermark
}

// Reset re-opens a daemon's stream for a replacement incarnation whose
// events are all stamped at or above floor (the plane's elapsed time at
// spawn — the new process cannot have recorded anything earlier).
func (f *FanIn) Reset(daemon int, floor simtime.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.streams[daemon].watermark = floor
}

// Finish declares the run over: every stream's watermark goes to +∞ and
// the remaining tails merge out, followed by a final sink flush. The
// caller then takes its verdicts (Monitor.Finish submits still-open ops —
// crash-orphaned invocations — as pending).
func (f *FanIn) Finish() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.streams {
		f.streams[i].watermark = simtime.Never
	}
	f.emit()
	f.merge.Finish()
}

// Clamped reports how many events arrived below the merge frontier and
// were clamped forward (expected zero).
func (f *FanIn) Clamped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.merge.Clamped()
}

// Emitted reports how many events have been observed by the sinks.
func (f *FanIn) Emitted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.merge.Emitted()
}

// emit hands every event stamped at or below the minimum live watermark
// to the merge and forwards that watermark. Callers hold f.mu.
func (f *FanIn) emit() {
	bound := simtime.Never
	for i := range f.streams {
		bound = min(bound, f.streams[i].watermark)
	}
	for i := range f.streams {
		s := &f.streams[i]
		n := 0
		for n < len(s.queue) && s.queue[n].At <= bound {
			f.merge.Add(i, s.queue[n].Action, s.queue[n].At, f.srcs[i])
			n++
		}
		if n > 0 {
			s.queue = append(s.queue[:0:0], s.queue[n:]...)
		}
	}
	f.merge.Emit()
	if bound != simtime.Never {
		f.merge.Flush(bound)
	}
}
