package exec

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// relay re-emits every delivered action under a new name at the same
// instant, exercising same-instant dispatch chains.
type relay struct {
	name string
	out  string
	got  int
}

func (r *relay) Name() string      { return r.name }
func (r *relay) Init() []ta.Action { return nil }
func (r *relay) Deliver(_ simtime.Time, a ta.Action) []ta.Action {
	r.got++
	return []ta.Action{{Name: r.out, Node: a.Node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: a.Payload}}
}
func (r *relay) Due(simtime.Time) (simtime.Time, bool) { return 0, false }
func (r *relay) Fire(simtime.Time) []ta.Action         { return nil }

// backoff schedules a timer a growing distance after each delivery; its
// deadline therefore changes under the scheduler's feet on every Deliver,
// exercising entry invalidation and re-push.
type backoff struct {
	name string
	next simtime.Time
	gap  simtime.Duration
	n    int
}

func (b *backoff) Name() string      { return b.name }
func (b *backoff) Init() []ta.Action { return nil }
func (b *backoff) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	b.gap += 37 * simtime.Microsecond
	b.next = now.Add(b.gap)
	return nil
}
func (b *backoff) Due(simtime.Time) (simtime.Time, bool) {
	if b.next == simtime.Zero {
		return 0, false
	}
	return b.next, true
}
func (b *backoff) Fire(now simtime.Time) []ta.Action {
	if now.Before(b.next) {
		return nil
	}
	b.next = simtime.Zero
	b.n++
	return []ta.Action{{Name: "TOCK", Node: ta.NoNode, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: b.n}}
}

// twin fires twice at each of its instants: a first TWIN leaves it due at
// the same instant, so the executor must carry it to the next round of the
// sweep, after every higher-index component due then too.
type twin struct {
	name   string
	period simtime.Duration
	left   int
	next   simtime.Time
	second bool
}

func (w *twin) Name() string                                { return w.name }
func (w *twin) Init() []ta.Action                           { w.next = simtime.Zero.Add(w.period); return nil }
func (w *twin) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }
func (w *twin) Due(simtime.Time) (simtime.Time, bool)       { return w.next, w.left > 0 }
func (w *twin) Fire(now simtime.Time) []ta.Action {
	if w.left == 0 || now.Before(w.next) {
		return nil
	}
	n := 1
	if w.second {
		n, w.next, w.left = 2, now.Add(w.period), w.left-1
	}
	w.second = !w.second
	return []ta.Action{{Name: "TWIN", Node: ta.NoNode, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: n}}
}

// sink counts deliveries and emits nothing.
type sink struct {
	name string
	got  int
}

func (k *sink) Name() string                                { return k.name }
func (k *sink) Init() []ta.Action                           { return nil }
func (k *sink) Deliver(simtime.Time, ta.Action) []ta.Action { k.got++; return nil }
func (k *sink) Due(simtime.Time) (simtime.Time, bool)       { return 0, false }
func (k *sink) Fire(simtime.Time) []ta.Action               { return nil }

// buildDiff assembles a system with coinciding deadlines, same-instant
// chains, deadline churn, subscriptions that share a routing key (the
// observer and backoff both take HOP, in registration order), and a
// component due again at its own firing instant beside a higher-index peer
// due then too (twin and its pinger).
func buildDiff() (*System, *sink) {
	s := New()
	for i := 0; i < 8; i++ {
		p := &pinger{
			name:   fmt.Sprintf("p%d", i),
			period: simtime.Duration(100+25*(i%4)) * simtime.Microsecond,
			left:   40 + 3*i,
		}
		s.Add(p)
	}
	for i := 0; i < 8; i++ {
		r := &relay{name: fmt.Sprintf("r%d", i), out: "HOP"}
		s.Add(r)
		node := ta.NodeID(i % 4)
		s.ConnectHeader(func(a ta.Action) bool { return a.Name == "PING" && a.Node == node }, r)
	}
	b := &backoff{name: "backoff"}
	s.Add(b)
	s.ConnectName("HOP", b)
	all := &sink{name: "all"}
	s.Add(all)
	s.ConnectHeader(func(a ta.Action) bool { return a.Name == "HOP" || a.Name == "TOCK" }, all)
	s.Hide(named("HOP"))
	s.Add(&twin{name: "twin", period: 130 * simtime.Microsecond, left: 25})
	s.Add(&pinger{name: "twin-peer", period: 130 * simtime.Microsecond, left: 25})
	return s, all
}

// render flattens a trace into one comparable string.
func render(tr ta.Trace) string {
	var sb strings.Builder
	for _, e := range tr {
		fmt.Fprintf(&sb, "%s|%d|%d|%s\n", e.Action.Label(), e.At, e.Seq, e.Src)
	}
	return sb.String()
}

// diffGolden is the FNV-64a hash of render(trace) for TestIndexedTraceGolden's
// run. It was captured from the original linear executor, a full scan of
// every component's Due and every subscription's predicate per step, which
// produced the identical trace; any change to the firing order, the carry
// rule, routing, hiding, or the handling of a mid-run Replace or Add moves
// it.
const diffGolden = 0x35cfdd99c0b43311

// TestIndexedTraceGolden runs buildDiff's system with mid-run structural
// churn, a relay swapped and a late pinger added, and requires the
// recorded trace to hash to diffGolden.
func TestIndexedTraceGolden(t *testing.T) {
	mid := simtime.Time(3 * simtime.Millisecond)
	end := simtime.Time(40 * simtime.Millisecond)
	s, all := buildDiff()
	if err := s.Run(mid); err != nil {
		t.Fatal(err)
	}
	s.Replace("r3", &relay{name: "r3", out: "HOP"})
	s.Add(&pinger{name: "late", period: 150 * simtime.Microsecond, left: 30})
	if err := s.Run(end); err != nil {
		t.Fatal(err)
	}
	if all.got == 0 {
		t.Fatal("observer sink never fired; shared routes untested")
	}
	tr := render(s.Trace())
	h := fnv.New64a()
	h.Write([]byte(tr))
	if got := h.Sum64(); got != diffGolden {
		t.Fatalf("trace hash %#016x, want %#016x; trace:\n%s", got, uint64(diffGolden), head(tr))
	}
}

// fticker is a synthetic tick source mirroring core.TickSource over a
// perfect (identity) clock: it emits FTICK(payload=now) every period and,
// when coalescable demand wiring is present, declares interest only in the
// tick crossing the demanded threshold.
type fticker struct {
	name    string
	node    ta.NodeID
	period  simtime.Duration
	next    simtime.Time
	demand  func() (simtime.Time, bool)
	skipped int
	buf     [1]ta.Action
}

func (f *fticker) Name() string { return f.name }
func (f *fticker) Init() []ta.Action {
	f.next = simtime.Zero.Add(f.period)
	f.buf[0] = ta.Action{Name: "FTICK", Node: f.node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: simtime.Zero}
	return f.buf[:]
}
func (f *fticker) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }
func (f *fticker) Due(simtime.Time) (simtime.Time, bool)       { return f.next, true }
func (f *fticker) Fire(now simtime.Time) []ta.Action {
	if now.Before(f.next) {
		return nil
	}
	f.next = now.Add(f.period)
	f.buf[0] = ta.Action{Name: "FTICK", Node: f.node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: now}
	return f.buf[:]
}
func (f *fticker) NextInterest() simtime.Time {
	c, ok := f.demand()
	if !ok {
		return simtime.Never
	}
	if !c.After(f.next) {
		return f.next
	}
	k := (int64(c.Sub(f.next)) + int64(f.period) - 1) / int64(f.period)
	return f.next.Add(simtime.Duration(k) * f.period)
}
func (f *fticker) FastForward(to simtime.Time) {
	if !f.next.Before(to) {
		return
	}
	k := int64(to.Sub(f.next)) / int64(f.period)
	f.next = f.next.Add(simtime.Duration(k) * f.period)
	f.skipped += int(k)
}

// fwaiter mirrors the MMT node's tick-driven threshold pattern: it takes a
// step every gap, and a step with clock ≥ threshold emits WAKE and raises
// the threshold; all other steps are idle. A POKE input answers ACK with
// the current clock value, probing tick-skip freshness at injections.
type fwaiter struct {
	name             string
	node             ta.NodeID
	clock, threshold simtime.Time
	delta            simtime.Duration
	gap              simtime.Duration
	nextStep         simtime.Time
	rounds           int
	fired            int
	skipped          int
	buf              [1]ta.Action
}

func (w *fwaiter) Name() string { return w.name }
func (w *fwaiter) Init() []ta.Action {
	w.nextStep = simtime.Zero.Add(w.gap)
	return nil
}
func (w *fwaiter) Deliver(_ simtime.Time, a ta.Action) []ta.Action {
	switch a.Name {
	case "FTICK":
		if c := a.Payload.(simtime.Time); c.After(w.clock) {
			w.clock = c
		}
		return nil
	case "POKE":
		w.buf[0] = ta.Action{Name: "ACK", Node: w.node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: w.clock}
		return w.buf[:]
	}
	return nil
}
func (w *fwaiter) Due(simtime.Time) (simtime.Time, bool) { return w.nextStep, true }
func (w *fwaiter) Fire(now simtime.Time) []ta.Action {
	if now.Before(w.nextStep) {
		return nil
	}
	w.nextStep = now.Add(w.gap)
	if w.rounds == 0 || w.threshold.After(w.clock) {
		return nil
	}
	w.rounds--
	w.threshold = w.threshold.Add(w.delta)
	w.fired++
	w.buf[0] = ta.Action{Name: "WAKE", Node: w.node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: w.fired}
	return w.buf[:]
}
func (w *fwaiter) demandFn() (simtime.Time, bool) {
	if w.rounds > 0 && w.threshold.After(w.clock) {
		return w.threshold, true
	}
	return 0, false
}
func (w *fwaiter) NextInterest() simtime.Time {
	if w.rounds > 0 && !w.threshold.After(w.clock) {
		return w.nextStep
	}
	return simtime.Never
}
func (w *fwaiter) FastForward(to simtime.Time) {
	if !w.nextStep.Before(to) {
		return
	}
	k := (int64(to.Sub(w.nextStep)) + int64(w.gap) - 1) / int64(w.gap)
	w.nextStep = w.nextStep.Add(simtime.Duration(k) * simtime.Duration(w.gap))
	w.skipped += int(k)
}

// buildCoal assembles tick-source/waiter pairs (dense tick storms with
// sparse observable WAKEs), a non-coalescable backoff component reacting
// to every WAKE (blocking the skip horizon mid-sweep), and hidden ticks.
func buildCoal(dense bool) (*System, []*fticker, []*fwaiter, *backoff) {
	s := New()
	s.dense = dense
	var ticks []*fticker
	var waits []*fwaiter
	for i := 0; i < 3; i++ {
		w := &fwaiter{
			name:      fmt.Sprintf("w%d", i),
			node:      ta.NodeID(i),
			threshold: simtime.Time((400 + 130*i) * int(simtime.Microsecond)),
			delta:     simtime.Duration(500+77*i) * simtime.Microsecond,
			gap:       simtime.Duration(3+2*i) * simtime.Microsecond,
			rounds:    12 + i,
		}
		f := &fticker{
			name:   fmt.Sprintf("t%d", i),
			node:   ta.NodeID(i),
			period: simtime.Duration(5+3*i) * simtime.Microsecond,
			demand: w.demandFn,
		}
		s.Add(w)
		s.Add(f)
		node := ta.NodeID(i)
		s.ConnectHeader(func(a ta.Action) bool {
			return (a.Name == "FTICK" || a.Name == "POKE") && a.Node == node
		}, w)
		ticks = append(ticks, f)
		waits = append(waits, w)
	}
	b := &backoff{name: "backoff"}
	s.Add(b)
	s.ConnectName("WAKE", b)
	s.Hide(named("FTICK"))
	return s, ticks, waits, b
}

// renderVisible flattens the observable trace without sequence numbers:
// coalesced runs elide hidden ticks and idle steps, which consume Seq in
// dense runs, so equivalence is label/kind/time/source on visible events.
func renderVisible(tr ta.Trace) string {
	var sb strings.Builder
	for _, e := range tr.Visible() {
		fmt.Fprintf(&sb, "%s|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Src)
	}
	return sb.String()
}

// TestCoalescedMatchesDense drives the synthetic tick/threshold system
// through the dense path and the coalesced fast path: observable traces must agree event for event, a mid-run
// injection must observe identical tick-derived state (the sync-tick
// guarantee at a Run bound), and the coalesced run must actually skip.
func TestCoalescedMatchesDense(t *testing.T) {
	mid := simtime.Time(4 * simtime.Millisecond)
	end := simtime.Time(30 * simtime.Millisecond)
	type result struct {
		visible string
		wakes   int
		skips   int
	}
	runOne := func(dense bool) result {
		s, ticks, waits, b := buildCoal(dense)
		if err := s.Run(mid); err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		// The injected POKE answers with the waiter's current tick-derived
		// clock: the coalesced path must have planted the same last tick
		// before the run bound as the dense schedule delivered.
		s.Inject(ta.Action{Name: "POKE", Node: 1, Peer: ta.NoNode, Kind: ta.KindInput})
		if err := s.Run(end); err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		skips := 0
		for _, f := range ticks {
			skips += f.skipped
		}
		wakes := 0
		for _, w := range waits {
			skips += w.skipped
			wakes += w.fired
		}
		if b.n == 0 {
			t.Fatalf("dense=%v: backoff never fired; blocking path untested", dense)
		}
		return result{visible: renderVisible(s.Trace()), wakes: wakes, skips: skips}
	}
	coal := runOne(false)
	dense := runOne(true)
	if coal.wakes == 0 {
		t.Fatal("no WAKE events; thresholds never crossed")
	}
	if dense.skips != 0 {
		t.Fatalf("dense path skipped %d events", dense.skips)
	}
	if coal.skips == 0 {
		t.Fatal("coalesced path skipped nothing; fast path untested")
	}
	if coal.visible != dense.visible {
		t.Fatalf("coalesced visible trace differs from dense:\ncoalesced:\n%s\ndense:\n%s", head(coal.visible), head(dense.visible))
	}
}

// head trims a rendered trace for failure output.
func head(s string) string {
	lines := strings.SplitN(s, "\n", 41)
	if len(lines) > 40 {
		return strings.Join(lines[:40], "\n") + "\n..."
	}
	return s
}
