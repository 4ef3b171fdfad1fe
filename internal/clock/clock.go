// Package clock provides executable realizations of the paper's clock
// subsystem (§1, §4): per-node clocks that are strictly increasing functions
// of real time and never differ from real time by more than ε — the clock
// predicate C_ε of Definition 2.5 — starting at 0 (axiom C1).
//
// Every model is a deterministic, seeded, piecewise-linear function, so the
// executor can both read the clock at any real time and invert it: the
// receive buffer R_ji,ε and the clock-model timers need "the earliest real
// time at which this clock reaches clock value c".
//
// Clock "jumps" (§1: "the clock may change in discrete jumps, so that any
// particular time value might be missed") are realized as very steep
// segments; monotonicity is preserved, and value-missing at the process
// level is the business of the MMT model's TICK granularity.
package clock

import (
	"fmt"
	"math/rand"

	"psclock/internal/simtime"
)

// den is the fixed rate denominator: rates are expressed in parts per
// million, so a rate of 1_000_000/den is perfect time.
const den = 1_000_000

// Model is one node's clock: a monotone map from real time to clock time
// satisfying C_ε. Implementations are deterministic but stateful (segments
// are generated lazily); they are not safe for concurrent use, matching the
// single-threaded executor.
type Model interface {
	// At returns the clock reading at real time t ≥ 0.
	At(t simtime.Time) simtime.Time
	// EarliestAt returns the earliest real time u with At(u) ≥ c.
	EarliestAt(c simtime.Time) simtime.Time
	// Epsilon returns the accuracy bound ε that the model guarantees.
	Epsilon() simtime.Duration
	// Name describes the model for reports.
	Name() string
}

// Factory builds one clock model per node, so different nodes can get
// differently-seeded (or differently-shaped) clocks.
type Factory func(node int) Model

// segment is one linear piece: for t in [startReal, endReal), the clock is
// startClock + (t−startReal)·num/den, reaching endClock at endReal. gen
// fixes both ends once, so a lookup compares and never divides.
type segment struct {
	startReal, endReal   simtime.Time
	startClock, endClock simtime.Time
	num                  int64 // rate numerator over den; ≥ 1 keeps the clock monotone
}

func (s segment) at(t simtime.Time) simtime.Time {
	return s.startClock.Add(t.Sub(s.startReal).Scale(s.num, den))
}

// piecewise is the shared engine: an extendable list of segments produced
// by a generator. The generator returns the next segment's rate numerator
// and duration, given the current clock offset (clock − real).
//
// cur is the index of the segment the last lookup found. The executor's
// lookups are near-monotone (a node reads its clock at now and inverts it
// at a timer's or a buffered message's clock value, a few segments either
// side), so each lookup walks from cur, and its cost does not grow with
// the number of segments the run has generated.
type piecewise struct {
	name string
	eps  simtime.Duration
	segs []segment
	cur  int
	next func(offset simtime.Duration) (num int64, dur simtime.Duration)
}

var _ Model = (*piecewise)(nil)

func (p *piecewise) Name() string              { return p.name }
func (p *piecewise) Epsilon() simtime.Duration { return p.eps }

// extend generates segments until real time t is covered.
func (p *piecewise) extend(t simtime.Time) {
	if len(p.segs) == 0 {
		p.segs = append(p.segs, p.gen(segment{startReal: 0, startClock: 0}))
	}
	for last := p.segs[len(p.segs)-1]; last.endReal <= t; last = p.segs[len(p.segs)-1] {
		p.segs = append(p.segs, p.gen(segment{startReal: last.endReal, startClock: last.endClock}))
	}
}

// gen fills in rate and end for a segment starting at the given point,
// clamping so the clock stays inside the ±ε band (C_ε is an invariant, not
// a hope).
func (p *piecewise) gen(s segment) segment {
	offset := simtime.Duration(s.startClock - simtime.Time(s.startReal))
	num, dur := p.next(offset)
	if num < 1 {
		num = 1 // monotonicity floor
	}
	if dur < 1 {
		dur = 1
	}
	// End offset = offset + dur·(num−den)/den; clamp num so it stays in
	// [−ε, ε].
	endOff := offset + dur.Scale(num-den, den)
	if endOff > p.eps {
		// Solve offset + dur·(num−den)/den = ε for num.
		num = den + int64((p.eps-offset))*den/int64(dur)
		if num < 1 {
			num = 1
		}
	} else if endOff < -p.eps {
		num = den + int64((-p.eps-offset))*den/int64(dur)
		if num < 1 {
			num = 1
		}
	}
	s.num = num
	s.endReal, s.endClock = s.startReal.Add(dur), s.startClock.Add(dur.Scale(num, den))
	return s
}

func (p *piecewise) At(t simtime.Time) simtime.Time {
	if t < 0 {
		t = 0
	}
	p.extend(t)
	// The segment covering t: segments are contiguous from 0 and extend
	// covered t, so both walks stop inside the list.
	i := p.cur
	for t < p.segs[i].startReal {
		i--
	}
	for t >= p.segs[i].endReal {
		i++
	}
	p.cur = i
	return p.segs[i].at(t)
}

func (p *piecewise) EarliestAt(c simtime.Time) simtime.Time {
	if c <= 0 {
		return 0
	}
	// The clock reaches c no later than real time c+ε (predicate C_ε), so
	// extending to that point guarantees the target segment exists.
	p.extend(simtime.Time(int64(c) + int64(p.eps) + 1))
	// The first segment whose end clock reaches c: end clocks never
	// decrease along the list, and the last one is past c.
	i := p.cur
	for i > 0 && p.segs[i-1].endClock >= c {
		i--
	}
	for p.segs[i].endClock < c {
		i++
	}
	p.cur = i
	s := p.segs[i]
	if s.startClock >= c {
		return s.startReal
	}
	// Smallest dt with startClock + dt·num/den ≥ c:
	// dt = ceil((c − startClock)·den/num).
	need := int64(c - s.startClock)
	dt := (need*den + s.num - 1) / s.num
	return s.startReal.Add(simtime.Duration(dt))
}

// Perfect returns the ideal clock: clock = now (ε = 0). Running a clock-model
// system with perfect clocks must reproduce the TA-model behavior exactly,
// which the tests exploit.
func Perfect() Model {
	return &piecewise{
		name: "perfect",
		eps:  0,
		next: func(simtime.Duration) (int64, simtime.Duration) {
			return den, simtime.Duration(1) << 40 // one long exact segment
		},
	}
}

// Constant returns a clock that ramps quickly to the given offset and then
// runs at perfect rate, modeling a fixed skew of |offset| ≤ ε. The ramp
// occupies the first ramp duration (default 2·|offset| when ramp ≤ 0).
func Constant(eps simtime.Duration, offset simtime.Duration) Model {
	if offset.Abs() > eps {
		panic(fmt.Sprintf("clock: offset %v exceeds ε %v", offset, eps))
	}
	ramped := false
	return &piecewise{
		name: fmt.Sprintf("constant(%v)", offset),
		eps:  eps,
		next: func(cur simtime.Duration) (int64, simtime.Duration) {
			if !ramped {
				ramped = true
				ramp := 2 * offset.Abs()
				if ramp == 0 {
					return den, simtime.Duration(1) << 40
				}
				// Reach `offset` after `ramp` real time:
				// rate = (ramp+offset)/ramp.
				return den + int64(offset)*den/int64(ramp), ramp
			}
			return den, simtime.Duration(1) << 40
		},
	}
}

// Drift returns a seeded random-walk clock: segments of duration in
// [minSeg, 2·minSeg) aiming at uniformly random offsets within the ±ε band.
// minSeg is clamped to at least 8ε so rates stay moderate.
func Drift(eps simtime.Duration, seed int64) Model {
	if eps <= 0 {
		return Perfect()
	}
	r := rand.New(rand.NewSource(seed))
	minSeg := 8 * eps
	return &piecewise{
		name: fmt.Sprintf("drift(ε=%v,seed=%d)", eps, seed),
		eps:  eps,
		next: func(cur simtime.Duration) (int64, simtime.Duration) {
			dur := minSeg + simtime.Duration(r.Int63n(int64(minSeg)))
			target := simtime.Duration(r.Int63n(2*int64(eps)+1)) - eps
			return den + int64(target-cur)*den/int64(dur), dur
		},
	}
}

// Sawtooth returns the adversarial oscillating clock: it runs slow until it
// reaches −ε, then jumps (a very steep segment of the given jump duration)
// to +ε, and repeats. period controls how long one slow descent takes.
// This is the clock most likely to expose algorithms that assume clocks
// behave smoothly.
func Sawtooth(eps simtime.Duration, period simtime.Duration) Model {
	if eps <= 0 {
		return Perfect()
	}
	if period < 4*eps {
		period = 4 * eps
	}
	jump := eps / 64
	if jump < 1 {
		jump = 1
	}
	return &piecewise{
		name: fmt.Sprintf("sawtooth(ε=%v,period=%v)", eps, period),
		eps:  eps,
		next: func(cur simtime.Duration) (int64, simtime.Duration) {
			if cur <= -eps+eps/16 {
				// Jump to +ε fast: gain (ε−cur) over `jump` real time.
				return den + int64(eps-cur)*den/int64(jump), jump
			}
			// Descend to −ε over `period`.
			return den + int64(-eps-cur)*den/int64(period), period
		},
	}
}

// Resync models an NTP-style discipline, the paper's §1 motivation: the
// clock drifts at a constant rate (losing or gaining ppm parts per
// million) between synchronization epochs `interval` apart, and at each
// epoch steps briskly back toward zero offset (a steep segment — never
// backwards, per C3). The drift rate and interval must keep the offset
// within ±ε: |ppm·interval/1e6| ≤ ε is required and enforced by the usual
// band clamping.
func Resync(eps simtime.Duration, ppm int64, interval simtime.Duration) Model {
	if eps <= 0 {
		return Perfect()
	}
	if interval < 4*eps {
		interval = 4 * eps
	}
	step := eps / 64
	if step < 1 {
		step = 1
	}
	syncing := false
	return &piecewise{
		name: fmt.Sprintf("resync(ε=%v,%dppm,%v)", eps, ppm, interval),
		eps:  eps,
		next: func(cur simtime.Duration) (int64, simtime.Duration) {
			if syncing || cur.Abs() < eps/32 {
				// Drift segment until the next sync epoch.
				syncing = false
				return den + ppm, interval
			}
			// Sync step: return to (near) zero offset over `step` time.
			syncing = true
			return den + int64(-cur)*den/int64(step), step
		},
	}
}

// Slow returns a clock pinned near the bottom of the band (clock ≈ now − ε),
// and Fast one pinned near the top (clock ≈ now + ε). A system mixing Slow
// and Fast nodes realizes the worst-case 2ε clock disagreement between
// nodes, where the buffering of §4.2 is actually exercised.
func Slow(eps simtime.Duration) Model { return Constant(eps, -eps) }

// Fast returns a clock pinned at clock ≈ now + ε. See Slow.
func Fast(eps simtime.Duration) Model { return Constant(eps, eps) }

// PerfectFactory gives every node a perfect clock.
func PerfectFactory() Factory {
	return func(int) Model { return Perfect() }
}

// DriftFactory gives node i a drifting clock seeded with seed+i.
func DriftFactory(eps simtime.Duration, seed int64) Factory {
	return func(node int) Model { return Drift(eps, seed+int64(node)) }
}

// SpreadFactory pins even nodes Fast and odd nodes Slow: the maximal
// inter-node skew adversary.
func SpreadFactory(eps simtime.Duration) Factory {
	return func(node int) Model {
		if node%2 == 0 {
			return Fast(eps)
		}
		return Slow(eps)
	}
}

// SawtoothFactory gives every node a sawtooth clock with a per-node phase
// (period scaled by node index so nodes jump at different times).
func SawtoothFactory(eps simtime.Duration, period simtime.Duration) Factory {
	return func(node int) Model {
		return Sawtooth(eps, period+simtime.Duration(node)*eps)
	}
}

// Adversaries is the clock vocabulary of pscsim, pscserve, pscfuzz and the
// experiments, in the order pscfuzz draws from: each entry builds per-node
// clocks from ε, a sawtooth period and a seed. Only sawtooth reads the
// period, 0 giving the tools' 8ε + 1ms, and only drift reads the seed.
var Adversaries = []struct {
	Name string
	New  func(eps, period simtime.Duration, seed int64) Factory
}{
	{"perfect", func(simtime.Duration, simtime.Duration, int64) Factory { return PerfectFactory() }},
	{"spread", func(eps, _ simtime.Duration, _ int64) Factory { return SpreadFactory(eps) }},
	{"drift", func(eps, _ simtime.Duration, seed int64) Factory { return DriftFactory(eps, seed) }},
	{"sawtooth", func(eps, period simtime.Duration, _ int64) Factory {
		if period == 0 {
			period = 8*eps + simtime.Millisecond
		}
		return SawtoothFactory(eps, period)
	}},
	{"resync", func(eps, _ simtime.Duration, _ int64) Factory {
		return func(node int) Model { return Resync(eps, -400+int64(node)*200, 10*simtime.Millisecond) }
	}},
}

// Named builds the Adversaries entry called name.
func Named(name string, eps, period simtime.Duration, seed int64) (Factory, error) {
	for _, a := range Adversaries {
		if a.Name == name {
			return a.New(eps, period, seed), nil
		}
	}
	return nil, fmt.Errorf("unknown clock model %q", name)
}

// Check verifies that m satisfies the clock axioms on a sampled horizon:
// C1 (At(0) = 0), monotone non-decreasing readings (the discrete-grid form
// of C3), the clock predicate C_ε (Definition 2.5), and agreement between
// At and EarliestAt. It returns the first violation found.
func Check(m Model, horizon simtime.Time, step simtime.Duration) error {
	if step <= 0 {
		return fmt.Errorf("clock: non-positive step %v", step)
	}
	if c0 := m.At(0); c0 != 0 {
		return fmt.Errorf("clock %s: At(0) = %v, want 0 (axiom C1)", m.Name(), c0)
	}
	eps := m.Epsilon()
	var prev simtime.Time
	for t := simtime.Zero; t <= horizon; t = t.Add(step) {
		c := m.At(t)
		if c < prev {
			return fmt.Errorf("clock %s: At(%v) = %v < At(previous) = %v (axiom C3)", m.Name(), t, c, prev)
		}
		if d := simtime.Duration(c - t); d.Abs() > eps {
			return fmt.Errorf("clock %s: |At(%v) − %v| = %v > ε = %v (predicate C_ε)", m.Name(), t, t, d.Abs(), eps)
		}
		u := m.EarliestAt(c)
		if got := m.At(u); got < c {
			return fmt.Errorf("clock %s: At(EarliestAt(%v)) = %v < %v", m.Name(), c, got, c)
		}
		if u > 0 {
			if got := m.At(u - 1); got >= c {
				return fmt.Errorf("clock %s: EarliestAt(%v) = %v is not earliest (At(%v) = %v)", m.Name(), c, u, u-1, got)
			}
		}
		prev = c
	}
	return nil
}
