package clock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"psclock/internal/simtime"
)

// searchAt and searchEarliestAt are the lookups as a binary search over
// every segment from 0, each probe computing the segment's end clock from
// its rate: the reference the cursor walk must equal bit for bit.
func searchAt(p *piecewise, t simtime.Time) simtime.Time {
	if t < 0 {
		t = 0
	}
	p.extend(t)
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].startReal > t }) - 1
	return p.segs[i].at(t)
}

func searchEarliestAt(p *piecewise, c simtime.Time) simtime.Time {
	if c <= 0 {
		return 0
	}
	p.extend(simtime.Time(int64(c) + int64(p.eps) + 1))
	endClock := func(s segment) simtime.Time {
		return s.startClock.Add(s.endReal.Sub(s.startReal).Scale(s.num, den))
	}
	i := sort.Search(len(p.segs)-1, func(i int) bool { return endClock(p.segs[i]) >= c })
	s := p.segs[i]
	if s.startClock >= c {
		return s.startReal
	}
	need := int64(c - s.startClock)
	return s.startReal.Add(simtime.Duration((need*den + s.num - 1) / s.num))
}

// TestPiecewiseLookupsMatchSearch drives every constructor with a seeded
// query order — small steps either way, jumps back to anywhere, jumps far
// past the generated end, negative instants and clock values, and queries
// exactly at segment boundaries — and requires At and EarliestAt to equal
// the binary search's answers at every step.
func TestPiecewiseLookupsMatchSearch(t *testing.T) {
	eps := 500 * us
	long := simtime.Duration(1) << 36 // a step across the perfect and constant clocks' 2^40 ns segments takes 16
	cases := []struct {
		mk   func() Model
		unit simtime.Duration // about one segment
	}{
		{Perfect, long},
		{func() Model { return Constant(eps, eps/3) }, long},
		{func() Model { return Constant(eps, -eps) }, long},
		{func() Model { return Drift(eps, 7) }, 8 * eps},
		{func() Model { return Drift(eps, 8) }, 8 * eps},
		{func() Model { return Sawtooth(eps, 3*ms) }, 3 * ms},
		{func() Model { return Resync(eps, -400, 4*ms) }, 4 * ms},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range cases {
			p := tc.mk().(*piecewise)
			r := rand.New(rand.NewSource(seed))
			draw := func(d simtime.Duration) simtime.Duration { return simtime.Duration(r.Int63n(int64(d) + 1)) }
			var pos simtime.Time
			for q := 0; q < 3000; q++ {
				ts := []simtime.Time{}
				switch k := r.Intn(20); {
				case k < 9: // a small step forward
					pos = pos.Add(draw(2 * tc.unit))
				case k < 11: // a small step back
					pos = max(0, pos.Add(-draw(4*tc.unit)))
				case k < 13: // back to anywhere
					pos = simtime.Time(draw(simtime.Duration(pos)))
				case k < 15: // far past the generated end
					pos = p.segs[len(p.segs)-1].endReal.Add(draw(64 * tc.unit))
				case k < 16: // before time 0
					ts = append(ts, -simtime.Time(draw(tc.unit)+1))
				default: // on a segment's boundaries
					s := p.segs[r.Intn(len(p.segs))]
					ts = append(ts, s.startReal, s.startReal-1, s.endReal, s.endClock, s.endClock+1, s.startClock)
				}
				ts = append(ts, pos, pos.Add(draw(4*eps)-2*eps))
				for _, x := range ts {
					if got, want := p.At(x), searchAt(p, x); got != want {
						t.Fatalf("%s seed %d query %d: At(%d) = %d, search says %d", p.name, seed, q, x, got, want)
					}
					if got, want := p.EarliestAt(x), searchEarliestAt(p, x); got != want {
						t.Fatalf("%s seed %d query %d: EarliestAt(%d) = %d, search says %d", p.name, seed, q, x, got, want)
					}
				}
			}
		}
	}
}

var sinkTime simtime.Time

// BenchmarkEarliestAt inverts a drifting clock at near-monotone clock values
// (a 37 ms sweep, then a jump back) after 10³ and 10⁶ generated segments:
// the cost per call should not depend on the count.
func BenchmarkEarliestAt(b *testing.B) {
	for _, n := range []int{1e3, 1e6} {
		b.Run(fmt.Sprintf("segs=%d", n), func(b *testing.B) {
			p := Drift(100*us, 1).(*piecewise)
			for p.extend(0); len(p.segs) < n; {
				p.extend(p.segs[len(p.segs)-1].endReal)
			}
			base := p.segs[n-64].startClock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTime = p.EarliestAt(base.Add(simtime.Duration(i%1024) * 37 * us))
			}
		})
	}
}
