package clock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psclock/internal/simtime"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func TestPerfect(t *testing.T) {
	m := Perfect()
	for _, x := range []simtime.Time{0, 1, 1000, simtime.Time(5 * ms)} {
		if got := m.At(x); got != x {
			t.Errorf("At(%v) = %v", x, got)
		}
		if got := m.EarliestAt(x); got != x {
			t.Errorf("EarliestAt(%v) = %v", x, got)
		}
	}
	if m.Epsilon() != 0 {
		t.Error("Epsilon != 0")
	}
}

func TestCheckAllModels(t *testing.T) {
	eps := 500 * us
	horizon := simtime.Time(200 * ms)
	models := []Model{
		Perfect(),
		Constant(eps, 0),
		Constant(eps, eps),
		Constant(eps, -eps),
		Constant(eps, eps/3),
		Fast(eps),
		Slow(eps),
		Drift(eps, 1),
		Drift(eps, 42),
		Drift(eps, 12345),
		Sawtooth(eps, 10*ms),
		Sawtooth(eps, 2*eps), // period below the 4ε floor gets clamped
		Resync(eps, -200, 5*ms),
		Resync(eps, 150, 8*ms),
		Resync(eps, -800, 2*ms), // interval below the 4ε floor gets clamped
		// Drift rates that would leave the band within one interval: the
		// band clamp, not the generator, keeps C_ε.
		Resync(eps, 200_000, 5*ms),
		Resync(eps, -200_000, 5*ms),
	}
	for _, m := range models {
		if err := Check(m, horizon, 137*us); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestCheckBadStep(t *testing.T) {
	if err := Check(Perfect(), 1000, 0); err == nil {
		t.Error("step 0 accepted")
	}
}

func TestConstantReachesOffset(t *testing.T) {
	eps := 1 * ms
	m := Constant(eps, eps/2)
	// After the ramp (2·|offset| = 1ms) the offset is constant.
	for _, x := range []simtime.Time{simtime.Time(5 * ms), simtime.Time(50 * ms)} {
		off := simtime.Duration(m.At(x) - x)
		if off != eps/2 {
			t.Errorf("offset at %v = %v, want %v", x, off, eps/2)
		}
	}
}

func TestConstantPanicsOutOfBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Constant(ms, 2*ms)
}

func TestFastSlowExtremes(t *testing.T) {
	eps := 1 * ms
	f, s := Fast(eps), Slow(eps)
	at := simtime.Time(100 * ms)
	if off := simtime.Duration(f.At(at) - at); off != eps {
		t.Errorf("fast offset = %v", off)
	}
	if off := simtime.Duration(s.At(at) - at); off != -eps {
		t.Errorf("slow offset = %v", off)
	}
	// Worst-case inter-node skew is 2ε.
	if skew := simtime.Duration(f.At(at) - s.At(at)); skew != 2*eps {
		t.Errorf("skew = %v, want %v", skew, 2*eps)
	}
}

func TestSawtoothOscillates(t *testing.T) {
	eps := 1 * ms
	m := Sawtooth(eps, 8*ms)
	sawLow, sawHigh := false, false
	for x := simtime.Zero; x <= simtime.Time(100*ms); x = x.Add(50 * us) {
		off := simtime.Duration(m.At(x) - x)
		if off <= -eps/2 {
			sawLow = true
		}
		if off >= eps/2 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Errorf("sawtooth never visited both band halves (low=%v high=%v)", sawLow, sawHigh)
	}
}

func TestDriftDeterministic(t *testing.T) {
	a, b := Drift(ms, 7), Drift(ms, 7)
	for x := simtime.Zero; x <= simtime.Time(50*ms); x = x.Add(997 * simtime.Nanosecond * 50) {
		if a.At(x) != b.At(x) {
			t.Fatalf("same seed diverged at %v: %v vs %v", x, a.At(x), b.At(x))
		}
	}
	c := Drift(ms, 8)
	same := true
	for x := simtime.Time(10 * ms); x <= simtime.Time(50*ms); x = x.Add(simtime.Duration(ms)) {
		if a.At(x) != c.At(x) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical clocks")
	}
}

func TestEarliestAtInverse(t *testing.T) {
	models := []Model{Perfect(), Fast(ms), Slow(ms), Drift(ms, 3), Sawtooth(ms, 10*ms)}
	r := rand.New(rand.NewSource(1))
	for _, m := range models {
		for i := 0; i < 500; i++ {
			c := simtime.Time(r.Int63n(int64(100 * ms)))
			u := m.EarliestAt(c)
			if got := m.At(u); got < c {
				t.Errorf("%s: At(EarliestAt(%v)) = %v < c", m.Name(), c, got)
			}
			if u > 0 {
				if got := m.At(u - 1); got >= c {
					t.Errorf("%s: EarliestAt(%v)=%v not minimal", m.Name(), c, u)
				}
			}
		}
	}
}

func TestEarliestAtNonPositive(t *testing.T) {
	m := Drift(ms, 9)
	if m.EarliestAt(0) != 0 || m.EarliestAt(-5) != 0 {
		t.Error("EarliestAt(≤0) != 0")
	}
}

func TestAtNegativeClamped(t *testing.T) {
	m := Drift(ms, 9)
	if m.At(-100) != m.At(0) {
		t.Error("At(<0) != At(0)")
	}
}

// Property: for any drift seed and any two ordered sample points, the clock
// is monotone and within the band.
func TestDriftBandProperty(t *testing.T) {
	f := func(seed int64, a, b uint32) bool {
		eps := 300 * us
		m := Drift(eps, seed)
		x, y := simtime.Time(a%uint32(50*ms)), simtime.Time(b%uint32(50*ms))
		if x > y {
			x, y = y, x
		}
		cx, cy := m.At(x), m.At(y)
		if cx > cy {
			return false
		}
		return simtime.Duration(cx-x).Abs() <= eps && simtime.Duration(cy-y).Abs() <= eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFactories(t *testing.T) {
	eps := 1 * ms
	pf := PerfectFactory()
	if pf(0).Epsilon() != 0 {
		t.Error("PerfectFactory not perfect")
	}
	df := DriftFactory(eps, 100)
	if df(0).Name() == df(1).Name() {
		t.Error("DriftFactory seeds not distinct")
	}
	sf := SpreadFactory(eps)
	at := simtime.Time(50 * ms)
	if sf(0).At(at) <= at || sf(1).At(at) >= at {
		t.Error("SpreadFactory not spread")
	}
	swf := SawtoothFactory(eps, 10*ms)
	if err := Check(swf(2), simtime.Time(50*ms), 113*us); err != nil {
		t.Error(err)
	}
}

func TestZeroEpsilonDegradesToPerfect(t *testing.T) {
	if Drift(0, 1).Name() != "perfect" {
		t.Error("Drift(0) not perfect")
	}
	if Sawtooth(0, 0).Name() != "perfect" {
		t.Error("Sawtooth(0) not perfect")
	}
	if Resync(0, 100, ms).Name() != "perfect" {
		t.Error("Resync(0) not perfect")
	}
}

func TestResyncDriftsAndCorrects(t *testing.T) {
	eps := 1 * ms
	// A slow clock (−500ppm) over a 10ms epoch loses 5µs per epoch and
	// then snaps back toward zero offset.
	m := Resync(eps, -500, 10*ms)
	sawNegative, sawRecovered := false, false
	var prev simtime.Time
	for x := simtime.Zero; x <= simtime.Time(200*ms); x = x.Add(100 * us) {
		c := m.At(x)
		if c < prev {
			t.Fatalf("clock regressed at %v", x)
		}
		prev = c
		off := simtime.Duration(c - x)
		if off < -2*us {
			sawNegative = true
		}
		if sawNegative && off.Abs() < us {
			sawRecovered = true
		}
	}
	if !sawNegative || !sawRecovered {
		t.Errorf("resync clock never drifted (%v) or never recovered (%v)", sawNegative, sawRecovered)
	}
}

// TestNamedSawtoothPeriod: the vocabulary's sawtooth runs at the period it
// is given, and at the tools' 8ε + 1ms when given 0; node i's period is
// stretched by iε either way.
func TestNamedSawtoothPeriod(t *testing.T) {
	eps := 100 * us
	for _, tc := range []struct{ period, want simtime.Duration }{{0, 8*eps + ms}, {8 * ms, 8 * ms}} {
		f, err := Named("sawtooth", eps, tc.period, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f(1).Name(), Sawtooth(eps, tc.want+eps).Name(); got != want {
			t.Errorf("period %v: node 1's clock is %s, want %s", tc.period, got, want)
		}
	}
	if _, err := Named("jitter", eps, 0, 0); err == nil {
		t.Error("unknown clock name accepted")
	}
}
