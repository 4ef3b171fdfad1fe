// Package simtime provides the discrete notion of time used throughout the
// simulation: a 64-bit count of nanoseconds since the start of an execution.
//
// The paper's models take time from the non-negative reals; footnote 2 of
// §2.1 notes that the trajectory axioms may equally be interpreted over the
// rationals. A nanosecond grid is a sub-case of that and makes every bound
// in the paper exactly checkable, with no floating-point drift.
package simtime

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an instant, measured in nanoseconds since the start of the
// execution (the paper's "now" component, axiom S1: executions start at 0).
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Zero is the start of every execution.
const Zero Time = 0

// Never is a sentinel instant later than any reachable time. Components
// report Never when they have no pending deadline.
const Never Time = Time(1<<63 - 1)

// Forever is a sentinel duration longer than any reachable span.
const Forever Duration = Duration(1<<63 - 1)

// Add returns the instant d after t, saturating at Never.
func (t Time) Add(d Duration) Time {
	if t == Never || d == Forever {
		return Never
	}
	s := t + Time(d)
	if d >= 0 && s < t { // overflow
		return Never
	}
	return s
}

// Sub returns the span from u to t (t − u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// String renders the instant using the same unit scaling as Duration.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return Duration(t).String()
}

// Abs returns the magnitude of d.
func (d Duration) Abs() Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Min returns the smaller of d and e.
func (d Duration) Min(e Duration) Duration {
	if d < e {
		return d
	}
	return e
}

// Max returns the larger of d and e.
func (d Duration) Max(e Duration) Duration {
	if d > e {
		return d
	}
	return e
}

// Scale returns d*num/den, rounding toward negative infinity. It panics if
// den <= 0. Intermediate math is done in big words so that spans of up to
// ~290 simulated years scaled by small rationals do not overflow.
func (d Duration) Scale(num, den int64) Duration {
	if den <= 0 {
		panic("simtime: Scale requires den > 0")
	}
	// Fast path: non-negative operands with no overflow risk need a single
	// multiply-divide (truncation equals floor). This is the clock models'
	// steady state: a reading scales a small in-segment offset by a near-1
	// rational, and a segment's end clock is scaled once, when it is made.
	if num >= 0 && d >= 0 && (num == 0 || int64(d) <= (1<<62)/num) {
		return Duration(int64(d) * num / den)
	}
	q, r := int64(d)/den, int64(d)%den
	out := q*num + r*num/den
	rr := r * num % den
	if rr != 0 && (out < 0) != (rr < 0) && rr < 0 {
		out--
	}
	return Duration(out)
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis returns the duration as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// String renders the duration with an adaptive unit, e.g. "1.5ms", "250µs".
func (d Duration) String() string {
	if d == Forever {
		return "forever"
	}
	neg := d < 0
	v := d
	if neg {
		v = -v
	}
	var s string
	switch {
	case v == 0:
		return "0s"
	case v < Microsecond:
		s = strconv.FormatInt(int64(v), 10) + "ns"
	case v < Millisecond:
		s = trimZeros(float64(v)/1e3) + "µs"
	case v < Second:
		s = trimZeros(float64(v)/1e6) + "ms"
	default:
		s = trimZeros(float64(v)/1e9) + "s"
	}
	if neg {
		s = "-" + s
	}
	return s
}

func trimZeros(f float64) string {
	s := strconv.FormatFloat(f, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// ParseDuration parses strings of the form "12ns", "3us", "3µs", "1.5ms",
// "2s". It exists so command-line tools don't need the real time package's
// wall-clock semantics.
func ParseDuration(s string) (Duration, error) {
	orig := s
	var unit Duration
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "µs"):
		unit, s = Microsecond, strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "us"):
		unit, s = Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, s = Second, strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("simtime: missing unit in duration %q", orig)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("simtime: bad duration %q: %w", orig, err)
	}
	return Duration(f * float64(unit)), nil
}

// Interval is a closed duration range [Lo, Hi], used for message-delay
// bounds [d1, d2] and boundmap intervals [l, u].
type Interval struct {
	Lo, Hi Duration
}

// NewInterval returns the interval [lo, hi]. It panics if lo > hi or lo < 0,
// which would be an invalid delay or boundmap specification.
func NewInterval(lo, hi Duration) Interval {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("simtime: invalid interval [%v, %v]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// Contains reports whether d lies in the closed interval.
func (iv Interval) Contains(d Duration) bool { return iv.Lo <= d && d <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() Duration { return iv.Hi - iv.Lo }

// Widen returns the interval [max(Lo−by, 0), Hi+by], the delay
// transformation of Theorem 4.7 (d'1 = max(d1−2ε, 0), d'2 = d2+2ε with
// by = 2ε).
func (iv Interval) Widen(by Duration) Interval {
	lo := iv.Lo - by
	if lo < 0 {
		lo = 0
	}
	return Interval{Lo: lo, Hi: iv.Hi + by}
}

// String renders the interval as "[lo, hi]".
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v]", iv.Lo, iv.Hi)
}
