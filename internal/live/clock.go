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

// nodeClock is one node's time source: its clock.Model — the same clock
// abstraction the simulator runs on — evaluated at the real time its node
// reads (effects.now; under Start, the time since the runtime's epoch), so
// the perfect, fixed-offset and jittered models keep their ±ε guarantee
// (the clock predicate C_ε of Definition 2.5) on wall-clock time. On top of the model sits the chaos controller's
// step, the one thing that may push a reading outside the band. Every
// reading, step included, updates the largest |reading − real| served:
// the measured ε̂, so a step past ε is evidence by measurement, the way a
// real clock excursion would be.
//
// Safe for concurrent use: the node's loop reads its clock, a fault
// injector steps it, and the runtime probes the bound.
type nodeClock struct {
	mu    sync.Mutex
	real  func() simtime.Time
	m     clock.Model
	step  simtime.Duration
	bound simtime.Duration
}

// read takes one reading; the caller holds c.mu.
func (c *nodeClock) read() simtime.Time {
	real := c.real()
	r := c.m.At(real).Add(c.step)
	if off := r.Sub(real).Abs(); off > c.bound {
		c.bound = off
	}
	return r
}

// now returns the node's current clock reading. A backward step can make
// consecutive readings non-monotone; each instance's core.Composite keeps
// its own high-water mark of observed time, which absorbs that.
func (c *nodeClock) now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read()
}

// wakeAt returns the real instant at which the clock reaches target: the
// stepped clock reaches target when the model reaches target − step, at the
// real time the model's inverse names.
func (c *nodeClock) wakeAt(target simtime.Time) simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.EarliestAt(target.Add(-c.step))
}

// waitUntil returns the wall-clock wait until the clock reaches target,
// zero if it already has.
func (c *nodeClock) waitUntil(target simtime.Time) time.Duration {
	u, real := c.wakeAt(target), c.real()
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

// setStep replaces the applied step (absolute, not cumulative; zero heals)
// and takes a reading under it, so an excursion the node never reads
// during still reaches the measured bound.
func (c *nodeClock) setStep(d simtime.Duration) {
	c.mu.Lock()
	c.step = d
	c.read()
	c.mu.Unlock()
}

// offsetBound returns the largest |reading − real elapsed| served so far.
func (c *nodeClock) offsetBound() simtime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bound
}
