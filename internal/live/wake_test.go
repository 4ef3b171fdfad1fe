package live

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// arrives reports whether a wake token shows up within d.
func arrives(w *wakeSource, d time.Duration) bool {
	select {
	case <-w.C:
		return true
	case <-time.After(d):
		return false
	}
}

// TestWakeSource pins the arm semantics the node loop relies on. The
// bounds are orders of magnitude from the spans armed, so they decide
// whether a wake arrived at all, never how late.
func TestWakeSource(t *testing.T) {
	t.Run("an earlier re-arm pre-empts a later one", func(t *testing.T) {
		w, err := newWakeSource()
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		w.arm(10 * time.Second)
		w.arm(time.Millisecond)
		if !arrives(w, 5*time.Second) {
			t.Fatal("no wake from the 1 ms re-arm: the 10 s arming was not replaced")
		}
	})
	t.Run("a later re-arm replaces an earlier one", func(t *testing.T) {
		w, err := newWakeSource()
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		w.arm(300 * time.Millisecond)
		w.arm(10 * time.Second)
		if arrives(w, 400*time.Millisecond) {
			t.Fatal("the replaced 300 ms arming still delivered a wake")
		}
	})
}

// chainAlg runs independent chains of timers, each firing setting its
// successor a pseudo-random 50 µs–5 ms ahead, and checks the one property a
// wake source may never break: no timer is serviced before its deadline.
// Under perfect clocks the deadline is an instant of real time since the
// epoch, so the check is an ordering of two readings, not a latency. Each
// firing also re-arms the wake source behind the loop's back, for a token
// that is early for every deadline: it must only make the loop come round.
type chainAlg struct {
	t      *testing.T
	rt     *Runtime
	epoch  time.Time
	rng    *rand.Rand
	chains int
	left   int
	done   chan struct{}
}

func (a *chainAlg) next(ctx core.Context, chain int) {
	ahead := 50*us + simtime.Duration(a.rng.Int63n(int64(5*ms-50*us)))
	ctx.SetTimer(ctx.Time().Add(ahead), chain)
}

func (a *chainAlg) Start(ctx core.Context) {
	for c := 0; c < a.chains; c++ {
		a.next(ctx, c)
	}
}

func (a *chainAlg) OnTimer(ctx core.Context, key any) {
	if real := Since(a.epoch); real < ctx.Time() {
		a.t.Errorf("timer for %v serviced at %v: %v early", ctx.Time(), real, ctx.Time().Sub(real))
	}
	a.rt.nodes[0].wake.arm(time.Nanosecond)
	if a.left--; a.left == 0 {
		close(a.done)
	}
	if a.left >= a.chains {
		a.next(ctx, key.(int))
	}
}

func (a *chainAlg) OnInput(core.Context, string, any)      {}
func (a *chainAlg) OnMessage(core.Context, ta.NodeID, any) {}

func TestNodeTimerNeverEarly(t *testing.T) {
	alg := &chainAlg{
		t: t, epoch: time.Now(), rng: rand.New(rand.NewSource(7)),
		chains: 3, left: opsFor(t, 400), done: make(chan struct{}),
	}
	rt, err := New(Options{N: 1, Clocks: clock.PerfectFactory(), Epoch: alg.epoch},
		func(ta.NodeID, int) core.Algorithm { return alg })
	if err != nil {
		t.Fatal(err)
	}
	alg.rt = rt
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-alg.done:
	case <-time.After(30 * time.Second):
		t.Error("the timer chains stalled: a wake was lost")
	}
	if m := rt.Stop(); m.TimerLateP50 > m.TimerLateP99 || lateBucket(m.TimerLateP99) > lateBucket(m.TimerLate) {
		t.Errorf("lateness p50 %v, p99 %v, max %v are not ordered", m.TimerLateP50, m.TimerLateP99, m.TimerLate)
	}
}

// TestNodeTimerEarlierHeadPreempts: a write under d2 = 2 s leaves a far
// deadline armed at its node; a read then puts a 2ε+δ deadline ahead of it
// in the same queue. The read returning at all inside the bound — a
// quarter of the far deadline, a thousand read waits — says the loop
// re-armed its wake source when the head changed.
func TestNodeTimerEarlierHeadPreempts(t *testing.T) {
	p, bounds := liveParams(200*us, 2*simtime.Second)
	rt, err := New(Options{N: 1, Registers: 2, Bounds: bounds}, register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan wireResp, 1)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.invoke(0, invocation{name: register.ActWrite, payload: register.Value{Writer: 0, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	// Let the loop arm the far deadline and go to sleep on it.
	time.Sleep(20 * time.Millisecond)
	if err := rt.invoke(0, invocation{reg: 1, name: register.ActRead, to: returned}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("read behind a pending 2 s write did not return: the earlier head did not re-arm the wake source")
	}
}

// TestLateHistQuantiles fills the bucket array with a synthetic
// distribution (on-time firings, a log-uniform body, a stall) and requires
// p50 and p99 within one bucket of the exact order statistics.
func TestLateHistQuantiles(t *testing.T) {
	for i := 0; i < lateBuckets; i++ {
		if lo := lateEdge(i); lateBucket(lo) != i || lateBucket(lateEdge(i+1)-1) != i {
			t.Fatalf("bucket %d does not hold its own edges [%d, %d)", i, lo, lateEdge(i+1))
		}
		if lo, hi := lateEdge(i), lateEdge(i+1); i >= 4 && (hi-lo)*4 > lo {
			t.Fatalf("bucket %d [%d, %d) is wider than 25 %% of its lower edge", i, lo, hi)
		}
	}
	rng := rand.New(rand.NewSource(3))
	var h lateHist
	var exact []simtime.Duration
	add := func(d simtime.Duration) {
		h[lateBucket(d)].Add(1)
		exact = append(exact, d)
	}
	for i := 0; i < 500; i++ {
		add(0)
	}
	for i := 0; i < 20000; i++ {
		add(simtime.Duration(float64(us) * float64(uint64(1)<<rng.Intn(14)) * (1 + rng.Float64())))
	}
	add(95 * ms)
	want := stats.Summarize(exact)
	p50, p99 := h.quantile(0.50), h.quantile(0.99)
	for _, c := range []struct {
		name      string
		got, want simtime.Duration
	}{{"p50", p50, want.P50}, {"p99", p99, want.P99}} {
		if d := lateBucket(c.got) - lateBucket(c.want); d < -1 || d > 1 {
			t.Errorf("%s = %v, exact %v: %d buckets apart", c.name, c.got, c.want, d)
		}
	}
	if p50 := new(lateHist).quantile(0.50); p50 != 0 {
		t.Errorf("empty histogram reads %v", p50)
	}
}

// BenchmarkNodeTimerLateness reproduces DESIGN.md §5a's lateness table:
// the median of woke − asked for the read wait, the write wait and a
// short hold, through the runtime's wake source and through a time.Timer,
// from an otherwise idle process (the node loop's situation).
//
//	go test -run '^$' -bench NodeTimerLateness -benchtime 300x ./internal/live/
func BenchmarkNodeTimerLateness(b *testing.B) {
	for _, wait := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 5400 * time.Microsecond} {
		w, err := newWakeSource()
		if err != nil {
			b.Fatal(err)
		}
		tm := time.NewTimer(time.Hour)
		for _, src := range []struct {
			name  string
			sleep func()
		}{
			{"wake", func() { w.arm(wait); <-w.C }},
			{"timer", func() { tm.Reset(wait); <-tm.C }},
		} {
			b.Run(src.name+"/"+wait.String(), func(b *testing.B) {
				late := make([]float64, b.N)
				for i := range late {
					start := time.Now()
					src.sleep()
					late[i] = float64(time.Since(start)-wait) / 1e3
				}
				sort.Float64s(late)
				b.ReportMetric(late[len(late)/2], "p50-late-µs")
				b.ReportMetric(0, "ns/op")
			})
		}
		tm.Stop()
		w.close()
	}
}
