package linearize

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// randAlternating generates a random history that respects per-node
// alternation (one operation at a time per node, the contract Begin
// documents and register.History guarantees), with cross-node concurrency,
// occasional pending operations, and occasional structural violations
// (duplicate writes, reads of never-written values) to exercise the
// validation paths.
func randAlternating(r *rand.Rand) []Op {
	nodes := 2 + r.Intn(3)
	var written []string
	var ops []Op
	wseq := 0
	for n := 0; n < nodes; n++ {
		now := simtime.Time(r.Intn(20))
		k := 1 + r.Intn(4)
		for i := 0; i < k; i++ {
			inv := now
			res := inv.Add(simtime.Duration(1 + r.Intn(30)))
			pending := r.Intn(12) == 0
			if pending {
				res = simtime.Never
			}
			if r.Intn(2) == 0 {
				v := fmt.Sprintf("w%d", wseq)
				wseq++
				if r.Intn(20) == 0 && len(written) > 0 {
					v = written[r.Intn(len(written))] // duplicate write
				}
				written = append(written, v)
				ops = append(ops, Op{Node: ta.NodeID(n), Kind: Write, Value: v, Inv: inv, Res: res})
			} else {
				v := "v0"
				switch {
				case r.Intn(25) == 0:
					v = fmt.Sprintf("zz%d", r.Intn(3)) // never written
				case len(written) > 0 && r.Intn(4) != 0:
					v = written[r.Intn(len(written))]
				}
				ops = append(ops, Op{Node: ta.NodeID(n), Kind: Read, Value: v, Inv: inv, Res: res})
			}
			if pending {
				break // the node never got its response; it issues nothing more
			}
			now = res.Add(simtime.Duration(r.Intn(10)))
		}
	}
	return ops
}

// completionOrder returns the history in canonical streaming order: by
// response time (pending last), the order a monitor submits operations.
func completionOrder(ops []Op) []Op {
	seq := append([]Op(nil), ops...)
	sort.SliceStable(seq, func(i, j int) bool {
		if seq[i].Res != seq[j].Res {
			return seq[i].Res < seq[j].Res
		}
		if seq[i].Inv != seq[j].Inv {
			return seq[i].Inv < seq[j].Inv
		}
		return seq[i].Node < seq[j].Node
	})
	return seq
}

// replayOnline drives the online checker through seq with a randomized but
// contract-respecting schedule: Begin at each invocation, Add at each
// response (seq order), and Advance calls interleaved at valid watermarks.
func replayOnline(r *rand.Rand, seq []Op, opt Options) Result {
	type ev struct {
		at     simtime.Time
		isAdd  bool
		seqIdx int
	}
	var evs []ev
	for i, op := range seq {
		evs = append(evs, ev{at: op.Inv, isAdd: false, seqIdx: i})
		evs = append(evs, ev{at: op.Res, isAdd: true, seqIdx: i})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		if evs[a].isAdd != evs[b].isAdd {
			return !evs[a].isAdd // invocations precede responses at an instant
		}
		return evs[a].seqIdx < evs[b].seqIdx
	})
	o := NewOnline(opt)
	for i, e := range evs {
		if e.isAdd {
			if e.at == simtime.Never {
				break // pending tail: submit below, right before Finish
			}
			o.Add(seq[e.seqIdx])
		} else {
			o.Begin(seq[e.seqIdx].Node, seq[e.seqIdx].Inv)
		}
		switch r.Intn(3) {
		case 0:
			o.Advance(e.at)
		case 1:
			if i+1 < len(evs) && evs[i+1].at != simtime.Never {
				o.Advance(evs[i+1].at)
			}
		}
	}
	for _, op := range seq {
		if op.Pending() {
			o.Add(op)
		}
	}
	return o.Finish()
}

// randOnlineOptions varies the checking mode across the batch entry
// points' parameter space.
func randOnlineOptions(r *rand.Rand) Options {
	opt := Options{Initial: "v0"}
	switch r.Intn(4) {
	case 1:
		opt.Widen = simtime.Duration(1 + r.Intn(10))
	case 2:
		opt.MinAfterInv = simtime.Duration(1 + r.Intn(10))
	case 3:
		opt.ShiftFuture = simtime.Duration(1 + r.Intn(10))
	}
	if r.Intn(10) == 0 {
		opt.MaxStates = 1 + r.Intn(50) // exercise the budget verdict too
	}
	if r.Intn(8) == 0 {
		opt.AssumeUnique = true
	}
	return opt
}

// matchesBatchTrials generates TestOnlineMatchesBatch's 1 500 randomized
// trials — history and option mix, state-budget cut-offs included — and
// hands each to fn in order; callers seed the Advance schedule with trial.
func matchesBatchTrials(fn func(trial int, seq []Op, opt Options)) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 1500; trial++ {
		ops := randAlternating(r)
		opt := randOnlineOptions(r)
		if opt.AssumeUnique && validateHistory(ops, opt.Initial) != nil {
			opt.AssumeUnique = false // uniqueness-trusting mode needs a clean history
		}
		fn(trial, completionOrder(ops), opt)
	}
}

// TestOnlineMatchesBatch is the streaming/batch differential property: on
// randomized histories, under randomized Advance schedules, the online
// checker's Result — OK, Reason, and States — is byte-identical to the
// batch Check over the same operation sequence. Mismatches are minimized
// with the Shrink machinery before reporting.
func TestOnlineMatchesBatch(t *testing.T) {
	matchesBatchTrials(func(trial int, seq []Op, opt Options) {
		want := Check(seq, opt)
		got := replayOnline(rand.New(rand.NewSource(int64(trial))), seq, opt)
		if got == want {
			return
		}
		mismatch := func(h []Op) bool {
			hs := completionOrder(h)
			return Check(hs, opt) != replayOnline(rand.New(rand.NewSource(int64(trial))), hs, opt)
		}
		small := shrinkWith(seq, mismatch)
		t.Fatalf("trial %d: online %+v != batch %+v\nopts: %+v\nminimized history:\n%v",
			trial, got, want, opt, small)
	})
}

// TestOnlineSearchFingerprint pins the search itself, which the
// differential above cannot see (both sides run the one engine): an FNV
// hash of every trial's (OK, Reason, States, Pruned), exact and with a
// 5-tick ApproxEps, must equal the recorded constant. A change that keeps
// every verdict but explores a different state set — a lost or extra
// memo hit, a candidate missing from or added to a stage's list — moves
// the hash. The order of a stage's candidates does not: each fresh state
// tries every placeable candidate, so the states counted are the same.
func TestOnlineSearchFingerprint(t *testing.T) {
	const want uint64 = 0xb6b471810b4fb70b
	h := fnv.New64a()
	matchesBatchTrials(func(trial int, seq []Op, opt Options) {
		r := replayOnline(rand.New(rand.NewSource(int64(trial))), seq, opt)
		fmt.Fprintf(h, "%d %t %q %d %d\n", trial, r.OK, r.Reason, r.States, r.Pruned)
		opt.ApproxEps = 5
		r = Check(seq, opt)
		fmt.Fprintf(h, "%d %t %q %d %d\n", trial, r.OK, r.Reason, r.States, r.Pruned)
	})
	if got := h.Sum64(); got != want {
		t.Fatalf("search fingerprint %#x, want %#x: the explored states changed", got, want)
	}
}

// TestOnlineScheduleIndependence pins that two different Advance slicings
// produce identical Results — the verdict is a function of the submitted
// operations alone.
func TestOnlineScheduleIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		seq := completionOrder(randAlternating(r))
		opt := randOnlineOptions(r)
		if opt.AssumeUnique && validateHistory(seq, opt.Initial) != nil {
			opt.AssumeUnique = false
		}
		a := replayOnline(rand.New(rand.NewSource(1)), seq, opt)
		b := replayOnline(rand.New(rand.NewSource(2)), seq, opt)
		if a != b {
			t.Fatalf("trial %d: schedules disagree: %+v vs %+v\n%v", trial, a, b, seq)
		}
	}
}

// TestOnlineEntryPointParity replays through the exported batch wrappers,
// confirming CheckLinearizable/CheckEps/CheckSuperLinearizable all route
// through the one engine with their documented option mappings.
func TestOnlineEntryPointParity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		seq := completionOrder(randAlternating(r))
		eps := simtime.Duration(1 + r.Intn(8))
		if got, want := CheckLinearizable(seq, "v0"), Check(seq, Options{Initial: "v0"}); got != want {
			t.Fatalf("CheckLinearizable: %+v != %+v", got, want)
		}
		if got, want := CheckEps(seq, "v0", eps), Check(seq, Options{Initial: "v0", Widen: eps}); got != want {
			t.Fatalf("CheckEps: %+v != %+v", got, want)
		}
		if got, want := CheckSuperLinearizable(seq, "v0", eps), Check(seq, Options{Initial: "v0", MinAfterInv: 2 * eps}); got != want {
			t.Fatalf("CheckSuperLinearizable: %+v != %+v", got, want)
		}
	}
}

// TestOnlineGC pins the O(window) property: with a steadily advancing
// watermark, settled operations leave the window instead of accumulating —
// on a sequential stream and on one where three nodes' operations overlap
// each other and the next round's write. The window stays within a small
// constant per node however long the stream runs: the deterministic form of
// "streaming memory does not grow with the history".
func TestOnlineGC(t *testing.T) {
	const rounds = 10000
	streams := []struct {
		name  string
		nodes int
		round func(i int) []Op // one round's operations; a round spans 20 ticks
	}{
		{"sequential", 2, func(i int) []Op {
			inv, v := simtime.Time(i*20), fmt.Sprintf("w%d", i)
			return []Op{
				{Node: 0, Kind: Write, Value: v, Inv: inv, Res: inv.Add(10)},
				{Node: 1, Kind: Read, Value: v, Inv: inv.Add(11), Res: inv.Add(19)},
			}
		}},
		{"overlapping", 3, func(i int) []Op {
			inv, v := simtime.Time(i*20), fmt.Sprintf("w%d", i)
			return []Op{
				{Node: 0, Kind: Write, Value: v, Inv: inv, Res: inv.Add(10)},
				{Node: 1, Kind: Read, Value: v, Inv: inv.Add(4), Res: inv.Add(16)},
				// Still open when the next round's write is invoked.
				{Node: 2, Kind: Read, Value: v, Inv: inv.Add(8), Res: inv.Add(24)},
			}
		}},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			o := NewOnline(Options{Initial: "v0", AssumeUnique: true})
			// Feed what a monitor would see, in time order: an invocation
			// at Inv, the completed operation at Res, the watermark at each.
			type step struct {
				at    simtime.Time
				begin bool
				op    Op
			}
			var steps []step
			for i := 0; i < rounds; i++ {
				for _, op := range st.round(i) {
					steps = append(steps, step{op.Inv, true, op}, step{op.Res, false, op})
				}
			}
			sort.SliceStable(steps, func(a, b int) bool { return steps[a].at < steps[b].at })
			total, maxWindow := len(steps)/2, 0
			for _, s := range steps {
				if s.begin {
					o.Begin(s.op.Node, s.op.Inv)
				} else {
					o.Add(s.op)
				}
				o.Advance(s.at)
				maxWindow = max(maxWindow, len(o.window))
			}
			if limit := 2 * st.nodes; maxWindow > limit {
				t.Fatalf("window grew to %d entries (limit %d for %d nodes); GC is not engaging", maxWindow, limit, st.nodes)
			}
			r := o.Finish()
			if !r.OK {
				t.Fatalf("stream rejected: %+v", r)
			}
			if r.States > 3*total+10 {
				t.Fatalf("states %d exceed the linear bound for %d operations", r.States, total)
			}
		})
	}
}

// TestOnlineFlushExactBoundary pins the GC boundary: an operation whose
// deadline falls EXACTLY on the Advance watermark must not settle at that
// flush. Advance(w) promises only that no future invocation starts before
// w — an invocation at exactly w still produces a window overlapping a
// deadline at w, so the drain predicate is strictly hi < bound.
func TestOnlineFlushExactBoundary(t *testing.T) {
	o := NewOnline(Options{Initial: "v0"})
	o.Begin(0, 10)
	o.Add(Op{Node: 0, Kind: Write, Value: "w0", Inv: 10, Res: 20})
	o.Advance(20) // bound == hi: must hold the op
	if len(o.window) != 1 {
		t.Fatalf("op with hi == Advance bound settled early: window %d, want 1", len(o.window))
	}
	// A later invocation at exactly the old bound is still admissible and
	// must be orderable against the held op.
	o.Begin(1, 20)
	o.Add(Op{Node: 1, Kind: Read, Value: "w0", Inv: 20, Res: 25})
	o.Advance(26) // now strictly past both deadlines: everything settles
	if len(o.window) != 0 {
		t.Fatalf("window not drained past both deadlines: %d entries", len(o.window))
	}
	if r := o.Finish(); !r.OK {
		t.Fatalf("boundary stream rejected: %+v", r)
	}
}

// TestOnlineZeroWidthWindow pins instantaneous operations (Inv == Res):
// they are legal single-point windows, settle one tick past their instant,
// and fail with the batch checker's exact text when wrong.
func TestOnlineZeroWidthWindow(t *testing.T) {
	seq := []Op{
		{Node: 0, Kind: Write, Value: "w0", Inv: 10, Res: 10},
		{Node: 1, Kind: Read, Value: "w0", Inv: 12, Res: 12},
	}
	o := NewOnline(Options{Initial: "v0"})
	for _, op := range seq {
		o.Begin(op.Node, op.Inv)
		o.Add(op)
	}
	o.Advance(12) // the read's single point IS the bound: both ops held? no —
	// the write (hi 10 < 12) settles, the read (hi 12) is exactly at it.
	if len(o.window) != 1 {
		t.Fatalf("after Advance(12): window %d entries, want 1 (only the read held)", len(o.window))
	}
	o.Advance(13)
	if len(o.window) != 0 {
		t.Fatalf("zero-width read never settled: window %d entries", len(o.window))
	}
	if got, want := o.Finish(), Check(seq, Options{Initial: "v0"}); got != want {
		t.Fatalf("online %+v != batch %+v", got, want)
	}

	// A zero-width read of a never-written value must fail with the
	// sequential engine's verdict, Advance slicing notwithstanding.
	bad := []Op{{Node: 0, Kind: Read, Value: "ghost", Inv: 5, Res: 5}}
	o2 := NewOnline(Options{Initial: "v0"})
	o2.Begin(0, 5)
	o2.Add(bad[0])
	o2.Advance(6)
	if got, want := o2.Finish(), Check(bad, Options{Initial: "v0"}); got != want {
		t.Fatalf("zero-width failure: online %+v != batch %+v", got, want)
	}
}

// TestOnlineStraddlingFlushBounds pins an operation spanning several
// consecutive flush bounds: neighbours settle and leave the window around
// it, it survives every intermediate flush, and the final Result still
// matches the batch checker.
func TestOnlineStraddlingFlushBounds(t *testing.T) {
	seq := []Op{
		{Node: 0, Kind: Write, Value: "w0", Inv: 10, Res: 30}, // alive across the flushes at 20 and 25
		{Node: 1, Kind: Read, Value: "v0", Inv: 12, Res: 14},  // settles at the first flush
		{Node: 2, Kind: Read, Value: "w0", Inv: 42, Res: 44},  // arrives after the write settled
	}
	o := NewOnline(Options{Initial: "v0"})
	o.Begin(0, 10)
	o.Add(seq[0])
	o.Begin(1, 12)
	o.Add(seq[1])
	o.Advance(20) // first bound: the read (hi 14) settles, the write straddles
	if len(o.window) != 1 {
		t.Fatalf("after first flush: window %d entries, want 1 (the straddling write)", len(o.window))
	}
	o.Advance(25) // second bound, still inside [10,30]: the write must survive
	if len(o.window) != 1 {
		t.Fatalf("after second flush inside the write's window: window %d entries, want 1", len(o.window))
	}
	o.Advance(40) // past the deadline: the write settles
	if len(o.window) != 0 {
		t.Fatalf("after third flush: window %d entries, want 0", len(o.window))
	}
	o.Begin(2, 42)
	o.Add(seq[2])
	if got, want := o.Finish(), Check(seq, Options{Initial: "v0"}); got != want {
		t.Fatalf("online %+v != batch %+v", got, want)
	}
	if r := o.Finish(); !r.OK {
		t.Fatalf("straddling stream rejected: %+v", r)
	}
}

// checkOrders fails unless o.byHi and o.byLo each list every window index
// once, byHi in strictly ascending (hi, lo, id) order and byLo in strictly
// ascending (lo, id) order.
func checkOrders(t *testing.T, o *Online, when string) {
	t.Helper()
	for _, c := range []struct {
		name  string
		order []int
		less  func(a, b *olIv) bool
	}{
		{"byHi", o.byHi, func(a, b *olIv) bool {
			return a.hi < b.hi || a.hi == b.hi && (a.lo < b.lo || a.lo == b.lo && a.id < b.id)
		}},
		{"byLo", o.byLo, func(a, b *olIv) bool { return a.lo < b.lo || a.lo == b.lo && a.id < b.id }},
	} {
		if len(c.order) != len(o.window) {
			t.Fatalf("%s: %s holds %d indexes for a window of %d", when, c.name, len(c.order), len(o.window))
		}
		seen := make([]bool, len(o.window))
		for k, i := range c.order {
			if i < 0 || i >= len(o.window) || seen[i] {
				t.Fatalf("%s: %s %v is not a permutation of the window's %d indexes", when, c.name, c.order, len(o.window))
			}
			seen[i] = true
			if k > 0 && !c.less(&o.window[c.order[k-1]], &o.window[i]) {
				t.Fatalf("%s: %s out of order at %d: %+v before %+v", when, c.name, k, o.window[c.order[k-1]], o.window[i])
			}
		}
	}
}

// TestOnlineOrdersInvariant holds the window's two kept orders on seeded
// random streams: ops submitted in completion order and, as batch Check
// and CheckObject do, in any order (pending ops among them), with Advance
// called at random at a safe watermark (the least invocation still to be
// submitted). After every call byHi and byLo are ordered permutations of
// the window, and the Result equals the batch Check of the same sequence.
func TestOnlineOrdersInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 600; trial++ {
		seq := completionOrder(randAlternating(r))
		if trial%2 == 1 {
			r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		}
		opt := randOnlineOptions(r)
		if opt.AssumeUnique && validateHistory(seq, opt.Initial) != nil {
			opt.AssumeUnique = false
		}
		if r.Intn(4) == 0 {
			opt.ApproxEps = simtime.Duration(1 + r.Intn(8))
		}
		later := make([]simtime.Time, len(seq)+1) // least Inv of seq[i:]
		later[len(seq)] = simtime.Never
		for i := len(seq) - 1; i >= 0; i-- {
			later[i] = min(later[i+1], seq[i].Inv)
		}
		o := NewOnline(opt)
		for i, op := range seq {
			o.Add(op)
			checkOrders(t, o, fmt.Sprintf("trial %d after Add %d", trial, i))
			if r.Intn(3) == 0 {
				o.Advance(later[i+1] - simtime.Time(r.Intn(3)))
				checkOrders(t, o, fmt.Sprintf("trial %d after Advance %d", trial, i))
			}
		}
		if got, want := o.Finish(), Check(seq, opt); got != want {
			t.Fatalf("trial %d: online %+v != batch %+v\nopts: %+v\n%v", trial, got, want, opt, seq)
		}
	}
}
