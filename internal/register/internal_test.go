package register

import (
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
