package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// Speed calibration. One-shot CPU-bound wall time on a shared host drifts
// with machine speed (7–12 % between process runs when sized for this
// harness, several-fold while a neighbour steals the cores), so every
// CPU-bound timing is taken over many fixed-work slices, each between two
// fixed spins, in CPU time of the process — which the guest kernel keeps
// free of stolen time — and reported as the lower quartile of slice time
// rescaled to a host on which the spin takes calRefNS. Interference only
// ever adds time, so the lower quartile is the low-noise estimator; the
// rescaling removes what is left of host speed (clock rate, shared cache).

const (
	// spinSteps xorshift64 steps take ≈ 7 ms on the sizing host.
	spinSteps = 4_000_000
	// calRefNS is the spin time of the reference host every calibrated
	// figure is expressed on.
	calRefNS = 10e6
)

// spinSink keeps the spin loop's result live so the loop is not removed.
var spinSink uint64

// cpuNow is the CPU time the process has used so far, all threads, user
// plus system. The kernel derives the sum from its scheduler clock, so it
// is exact to the microsecond getrusage reports.
func cpuNow() time.Duration {
	user, sys := cpuTime(syscall.RUSAGE_SELF)
	return user + sys
}

// spin runs the fixed calibration work and returns the CPU time it took.
func spin() time.Duration {
	start := cpuNow()
	x := uint64(88172645463325252)
	for i := 0; i < spinSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return cpuNow() - start
}

// calibrate rescales a slice's per-unit time to the reference host:
// slice_ns / work × calRefNS / spin_ns.
func calibrate(sliceNS, spinNS float64, work int) float64 {
	if work <= 0 || spinNS <= 0 {
		return 0
	}
	return sliceNS / float64(work) * calRefNS / spinNS
}

// calSeries collects the slices of one fixed-work measurement.
type calSeries struct {
	raw, cal []float64 // per-unit ns: wall as measured, CPU calibrated
}

// sliceTime is what env.slice measured around one piece of work.
type sliceTime struct {
	wall, cpu time.Duration
	spun      time.Duration // the faster of the spins on either side
}

// add files one slice of work units.
func (c *calSeries) add(t sliceTime, work int) {
	if work <= 0 {
		return
	}
	c.raw = append(c.raw, float64(t.wall.Nanoseconds())/float64(work))
	c.cal = append(c.cal, calibrate(float64(t.cpu.Nanoseconds()), float64(t.spun.Nanoseconds()), work))
}

// calNS is the reported figure: the lower quartile of the calibrated
// per-unit times.
func (c *calSeries) calNS() float64 { return quantile(c.cal, 0.25) }

// rawNS is the uncalibrated median, reported beside it as a layer metric.
func (c *calSeries) rawNS() float64 { return quantile(c.raw, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (the spreadsheet / numpy default), 0 for an empty
// sample. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (its default, exclusive method): the
// driver measures run-to-run spread with them, so -selftest does too.
func quartiles(vs []float64) (q [3]float64) {
	m := len(vs)
	if m == 0 {
		return q
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
