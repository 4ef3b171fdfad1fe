// Package live is the second execution backend: a wall-clock runtime that
// hosts the same core.Algorithm programs the discrete-event simulator runs
// (the transformed register S^c of §6, the heartbeat failure detector of
// §1), on real goroutine-per-node timers and a real transport.
//
// The paper's claim is that an algorithm written against the §3 model runs
// unchanged once wrapped by the §4 clock transformation; the simulator
// checks that claim against modeled clocks and modeled links. This package
// checks it against the only clocks and links that exist outside a model:
// Go's monotonic clock perturbed by a clock.Model (so the ε band is still
// guaranteed, but now the runtime *measures* the offset it actually served
// rather than assuming it), and in-process channels or loopback TCP whose
// delays are measured per message. The runtime's event stream is bridged
// onto the exec.Sink contract, so register.Monitor/linearize.Online verify
// linearizability of live traffic online, exactly as they do for simulated
// traffic — one algorithm, one checker, two worlds.
package live

import (
	"sync"
	"time"

	"psclock/internal/clock"
	"psclock/internal/simtime"
)

// Clock is one node's wall-clock time source. Readings are simulated-time
// nanoseconds since the runtime's epoch, satisfying the clock predicate
// C_ε of Definition 2.5 with respect to real elapsed time; OffsetBound
// reports the largest |reading − real| the node actually observed, which
// is the measured ε the monitoring bridge relaxes its windows by.
//
// Implementations must be safe for concurrent use: the node's own loop
// reads its clock, and the runtime reads every clock at shutdown to
// collect the measured bounds.
type Clock interface {
	// Now returns the node's current clock reading.
	Now() simtime.Time
	// WaitUntil returns the wall-clock wait until the clock reaches
	// target, zero if it already has.
	WaitUntil(target simtime.Time) time.Duration
	// Epsilon returns the configured accuracy band ε the clock guarantees.
	Epsilon() simtime.Duration
	// OffsetBound returns the largest |reading − real elapsed| observed so
	// far: the measured ε.
	OffsetBound() simtime.Duration
	// Name describes the clock for reports.
	Name() string
}

// ModelClock adapts a deterministic clock.Model to a live Clock: readings
// evaluate the model at real elapsed time since the epoch, so the perfect,
// fixed-offset (Constant/Spread), and jittered-drift models of
// internal/clock become live clocks with the same ±ε guarantee. Every
// read updates the measured offset bound.
type ModelClock struct {
	mu    sync.Mutex
	epoch time.Time
	m     clock.Model
	bound simtime.Duration
}

var _ Clock = (*ModelClock)(nil)

// NewModelClock returns a live clock over m with readings anchored at
// epoch (the runtime's start instant, simulated Zero).
func NewModelClock(m clock.Model, epoch time.Time) *ModelClock {
	return &ModelClock{epoch: epoch, m: m}
}

// Since returns the real time elapsed since epoch as a simulated instant,
// clamped at Zero (a reading from before the epoch is a caller bug, but a
// negative instant must never reach the model). Every clock, delay
// measurement and merge floor of a run reads its timeline through it.
func Since(epoch time.Time) simtime.Time {
	t, err := simtime.TimeFromWall(time.Since(epoch))
	if err != nil {
		return simtime.Zero
	}
	return t
}

// Now implements Clock.
func (c *ModelClock) Now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	real := Since(c.epoch)
	r := c.m.At(real)
	if off := r.Sub(real).Abs(); off > c.bound {
		c.bound = off
	}
	return r
}

// WaitUntil implements Clock via the model's inverse: the earliest real
// time at which the clock reaches target.
func (c *ModelClock) WaitUntil(target simtime.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	real := Since(c.epoch)
	u := c.m.EarliestAt(target)
	if u <= real {
		return 0
	}
	w, err := simtime.ToWall(u.Sub(real))
	if err != nil {
		// A Forever-wide wait means the model never reaches target; the
		// node loop treats it as "no deadline" by sleeping its maximum.
		return time.Hour
	}
	return w
}

// Epsilon implements Clock.
func (c *ModelClock) Epsilon() simtime.Duration { return c.m.Epsilon() }

// OffsetBound implements Clock.
func (c *ModelClock) OffsetBound() simtime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bound
}

// Name implements Clock.
func (c *ModelClock) Name() string { return c.m.Name() }

// StepClock wraps a Clock with an externally settable offset: the chaos
// controller's clock adversary. A fault injector calls SetOffset to step
// the node's time source past (or within) the configured ε while the node
// program keeps running, and OffsetBound folds the largest applied |step|
// into the measured ε̂ — so a step past ε is observable in the run's
// evidence exactly the way a real clock excursion would be, without
// touching the clock.Model underneath.
type StepClock struct {
	inner Clock

	mu     sync.Mutex
	off    simtime.Duration
	maxAbs simtime.Duration
}

var _ Clock = (*StepClock)(nil)

// NewStepClock wraps inner with a zero offset.
func NewStepClock(inner Clock) *StepClock { return &StepClock{inner: inner} }

// SetOffset replaces the applied step (absolute, not cumulative); zero
// heals the clock. Safe for concurrent use with readers.
func (c *StepClock) SetOffset(d simtime.Duration) {
	c.mu.Lock()
	c.off = d
	if a := d.Abs(); a > c.maxAbs {
		c.maxAbs = a
	}
	c.mu.Unlock()
}

// Offset returns the currently applied step.
func (c *StepClock) Offset() simtime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.off
}

// Now implements Clock: the inner reading shifted by the applied step.
// A backward step can make consecutive readings non-monotone; the node
// loop's high-water clamp absorbs that, as it does for any clock.
func (c *StepClock) Now() simtime.Time {
	c.mu.Lock()
	off := c.off
	c.mu.Unlock()
	return c.inner.Now().Add(off)
}

// WaitUntil implements Clock: the stepped clock reaches target when the
// inner clock reaches target − off.
func (c *StepClock) WaitUntil(target simtime.Time) time.Duration {
	c.mu.Lock()
	off := c.off
	c.mu.Unlock()
	return c.inner.WaitUntil(target.Add(-off))
}

// Epsilon implements Clock: the band the inner clock still guarantees.
// The step is deliberately outside any guarantee — that is the fault.
func (c *StepClock) Epsilon() simtime.Duration { return c.inner.Epsilon() }

// OffsetBound implements Clock: the inner clock's measured bound plus the
// largest step ever applied — an upper bound on |reading − real|, so a
// step past ε surfaces as measured ε̂ > ε.
func (c *StepClock) OffsetBound() simtime.Duration {
	c.mu.Lock()
	maxAbs := c.maxAbs
	c.mu.Unlock()
	return c.inner.OffsetBound() + maxAbs
}

// Name implements Clock.
func (c *StepClock) Name() string { return c.inner.Name() + "+step" }
