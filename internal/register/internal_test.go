package register

import (
	"fmt"
	"testing"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func TestCeilSlot(t *testing.T) {
	ms := simtime.Millisecond
	b := NewBaseline(ms, 10*ms)
	cases := []struct{ in, want simtime.Time }{
		{0, 0},
		{1, simtime.Time(ms)},
		{simtime.Time(ms), simtime.Time(ms)},
		{simtime.Time(ms) + 1, simtime.Time(2 * ms)},
	}
	for _, c := range cases {
		if got := b.ceilSlot(c.in); got != c.want {
			t.Errorf("ceilSlot(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	z := NewBaseline(0, 10*ms)
	if z.ceilSlot(12345) != 12345 {
		t.Error("u=0 slotting should be identity")
	}
}

// stubCtx is the slice of core.Context Restore's test needs: a clock and a
// place for what a read returns.
type stubCtx struct {
	core.Context
	now simtime.Time
	out []any
}

func (c *stubCtx) Time() simtime.Time           { return c.now }
func (c *stubCtx) SetTimer(simtime.Time, any)   {}
func (c *stubCtx) Output(_ string, payload any) { c.out = append(c.out, payload) }

// TestRestoreMerge: the later value stands, own updates no later than it go,
// and pending updates merge under OnMessage's largest-sender rule.
func TestRestoreMerge(t *testing.T) {
	ms := simtime.Millisecond
	p := Params{Delta: ms, D2: 10 * ms}
	val := func(seq int) Value { return Value{Writer: 0, Seq: seq} }
	at := func(k int) simtime.Time { return simtime.Time(simtime.Duration(k) * ms) }
	ctx := &stubCtx{}

	r := NewL(p)
	// Received by the replacement itself: one the peer has applied already
	// (applied at 20), one pending at 40 from sender 1, one only it has (60).
	for _, u := range []struct {
		from ta.NodeID
		m    updateMsg
	}{{0, updateMsg{val(1), at(19)}}, {1, updateMsg{val(3), at(39)}}, {2, updateMsg{val(5), at(59)}}} {
		r.OnMessage(ctx, u.from, u.m)
	}
	r.Restore(Snapshot{Cur: Update{at(30), 1, val(2)}, Pending: []Update{
		{At: at(40), By: 2, V: val(4)}, // beats the replacement's own update for that instant
		{At: at(50), By: 0, V: val(6)}, // new to it
		{At: at(25), By: 0, V: val(9)}, // stale: no later than the value; a well-formed snapshot has none
	}})
	read := func(now int) Value {
		ctx.now, ctx.out = at(now), nil
		r.OnTimer(ctx, readTimer{})
		return ctx.out[0].(Value)
	}
	for _, c := range []struct{ now, want int }{{35, 2}, {45, 4}, {55, 6}, {65, 5}} {
		if got := read(c.now); got != val(c.want) {
			t.Errorf("read at %d ms = %v, want %v", c.now, got, val(c.want))
		}
	}
	// A snapshot older than what the replacement has applied changes nothing.
	if r.Restore(Snapshot{Cur: Update{At: at(10), V: val(7)}}); read(70) != val(5) {
		t.Errorf("an older snapshot's value replaced a newer one")
	}
	s := r.Snapshot()
	if s.Cur != (Update{at(60), 2, val(5)}) || len(s.Pending) != 0 {
		t.Errorf("Snapshot = %+v, want value %v applied at 60 ms from sender 2, nothing pending", s, val(5))
	}
}

// timerCtx is a stubCtx that records the instants timers are set for.
type timerCtx struct {
	stubCtx
	timers []simtime.Time
}

func (c *timerCtx) SetTimer(at simtime.Time, _ any) { c.timers = append(c.timers, at) }

// TestPendingUpdates: updates arriving out of time order are kept in time
// order, one per instant with the larger sender winning whichever arrives
// first, a timer is set once per new instant, an update due exactly now is
// applied, and a snapshot lists what is pending in time order.
func TestPendingUpdates(t *testing.T) {
	ms := simtime.Millisecond
	p := Params{Delta: ms, D2: 10 * ms}
	val := func(seq int) Value { return Value{Writer: 0, Seq: seq} }
	at := func(k int) simtime.Time { return simtime.Time(simtime.Duration(k) * ms) }
	ctx := &timerCtx{}
	r := NewL(p)
	for _, u := range []struct {
		from ta.NodeID
		t, v int
	}{
		{1, 49, 1}, {0, 19, 2}, {2, 39, 3}, // out of order: applied at 50, 20, 40
		{1, 29, 4}, {3, 29, 5}, // the same instant, larger sender second
		{3, 39, 6}, {2, 39, 7}, // the same instant, larger sender first: 6 beats 3, then 7 loses to it
	} {
		r.OnMessage(ctx, u.from, updateMsg{val(u.v), at(u.t)})
	}
	if want := []simtime.Time{at(50), at(20), at(40), at(30)}; fmt.Sprint(ctx.timers) != fmt.Sprint(want) {
		t.Errorf("timers set for %v, want one per new instant %v", ctx.timers, want)
	}
	want := []Update{{at(20), 0, val(2)}, {at(30), 3, val(5)}, {at(40), 3, val(6)}, {at(50), 1, val(1)}}
	if got := r.Snapshot().Pending; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Snapshot.Pending = %v, want %v", got, want)
	}
	read := func(now int) Value {
		ctx.now, ctx.out = at(now), nil
		r.OnTimer(ctx, readTimer{})
		return ctx.out[0].(Value)
	}
	for _, c := range []struct{ now, want, left int }{{19, 0, 4}, {20, 2, 3}, {45, 6, 1}, {50, 1, 0}} {
		wantV := Initial
		if c.want != 0 {
			wantV = val(c.want)
		}
		if got := read(c.now); got != wantV {
			t.Errorf("read at %d ms = %v, want %v", c.now, got, wantV)
		}
		if got := len(r.Snapshot().Pending); got != c.left {
			t.Errorf("after the read at %d ms, %d updates pending, want %d", c.now, got, c.left)
		}
	}
}
