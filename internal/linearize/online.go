package linearize

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements the online (streaming, windowed) form of the
// Wing-Gong checker. The batch entry points (Check, CheckObject, CheckEps,
// CheckSuperLinearizable) are thin wrappers that replay a history through
// it, so one engine serves both paths and the verdicts are identical by
// construction.
//
// # Frontier automaton
//
// Operations arrive as they complete. Each gets a placement window
// [lo, hi] exactly as in the batch checker (lo = Inv + MinAfterInv − Widen
// clamped at 0; hi = Res + Widen + ShiftFuture, or Never while pending).
// Instead of one big backtracking search over the whole history, the
// engine processes operations' *deadlines* (their hi instants) in
// canonical (hi, lo, arrival) order. Processing deadline d means: in every
// linearization, d must be placed using only operations whose windows open
// no later than d closes — everything else opens strictly afterwards. The
// engine therefore maintains a *frontier*: the set of distinguishable
// search states after all processed deadlines, where a state is
//
//	(early, last, ℓ)
//
// — the set of not-yet-closed operations already linearized ahead of their
// deadline ("early"), the register value (or the Model's state) after the
// linearized prefix, and ℓ, the maximum window-open over the prefix (the
// running lower bound on the next linearization point; the batch dfs
// tracks the same quantity implicitly through its sort order). Two states with equal (early, last)
// are merged keeping the smaller ℓ, which dominates: every continuation
// feasible for the larger ℓ is feasible for the smaller.
//
// At deadline d, states that already linearized d simply discard it from
// their early set; every other state runs a bounded dfs committing some
// set of still-open operations and then d itself, in every value-
// consistent order (greedy earliest-point placement per commit, the same
// exchange argument as the batch checker). The union of resulting states,
// deduplicated, is the next frontier. An empty frontier is a definitive
// violation: failure is sticky and later stages are skipped, so the
// verdict — and the States count — is independent of how the caller slices
// its Advance calls. Soundness and completeness follow from decomposing
// any linearization order into segments each ending at the next deadline
// in hi-order: the dfs at that deadline explores exactly the candidate
// segments (operations opening after hi_d cannot precede d in any order).
// A pending Call is a deadline like any other (at Never, so in Finish)
// whose result is not read. Such an op may also never have taken effect,
// but that fate needs no branch of its own: placed after every other op,
// where its unbounded window always admits it, it changes nothing that a
// completed op observes.
//
// # Watermarks and garbage collection
//
// Advance(w) tells the engine no further operation will be *invoked*
// before w (the executors' event-time monotonicity guarantee, surfaced by
// exec.Sink.Flush). A deadline is safe to process once no future arrival
// could either (a) open before it closes — future windows open at or after
// min over open invocations of (Inv + MinAfterInv − Widen) and at least
// w + MinAfterInv − Widen — or (b) close before it closes — future windows
// close at or after w. Begin declares in-flight invocations so (a) is
// exact; operations submitted while still pending freeze the bound at
// their own invocation until Finish resolves their fate. Processed
// operations leave the window entirely: steady-state memory is O(open
// window), not O(history). The value-uniqueness bookkeeping (duplicate
// writes, reads of never-written values) still grows with the number of
// distinct values; AssumeUnique drops it for trusted workloads, making the
// whole engine O(window).
type Online struct {
	opt      Options
	model    Model // nil: a read/write register
	finished bool
	final    Result

	window   []olIv
	byHi     []int        // window indexes in (hi, lo, arrival) order
	byLo     []int        // window indexes in (lo, arrival) order
	remap    []int        // compact's scratch
	pendLo   simtime.Time // the least lo of a pending op, or Never
	frontier []olState
	open     openInvs
	nextID   int
	states   int
	pruned   int

	// Per-stage scratch, reused from stage to stage (see drain).
	cands  []int  // window indexes that may precede the target, in lo order
	greedy []int  // commit's and stageApprox's in-order reads
	memo   keySet // the states commit has visited
	nf     frontierBuilder
	slab   []int // where early sets are carved (see carve)

	failed     bool
	failReason string

	// A Call's observed return by op id, while its window is open (kept
	// beside the window so a register's entries stay small); nil for a
	// register.
	results map[int]string

	// Value-uniqueness bookkeeping; nil under Options.AssumeUnique.
	dupErr   error
	writers  map[string]int // value → first writing op (arrival index)
	observed map[string]int // value → first completed read (arrival index)
}

// olIv is one submitted operation with its placement window.
type olIv struct {
	id      int
	kind    Kind
	value   string
	lo, hi  simtime.Time
	pending bool
	closed  bool
}

// olState is one frontier state; early holds ids in ascending order and is
// treated as immutable (copy on write, into a set carved from the slab).
type olState struct {
	early []int
	last  string
	ell   simtime.Time
}

// openInvs holds the (node, inv) pairs Begin declared and Add has not yet
// resolved; both engines hold their processing bound at the earliest.
type openInvs []openInv

type openInv struct {
	node ta.NodeID
	inv  simtime.Time
}

func (l *openInvs) add(node ta.NodeID, inv simtime.Time) { *l = append(*l, openInv{node, inv}) }

// resolve drops the pair (node, inv), if it is held.
func (l *openInvs) resolve(node ta.NodeID, inv simtime.Time) {
	s := *l
	for i, x := range s {
		if x.node == node && x.inv == inv {
			s[i] = s[len(s)-1]
			*l = s[:len(s)-1]
			return
		}
	}
}

// earliest returns the earliest held invocation, or b if that is earlier.
func (l openInvs) earliest(b simtime.Time) simtime.Time {
	for _, x := range l {
		b = min(b, x.inv)
	}
	return b
}

// NewOnline returns an online register checker with the given options.
func NewOnline(opt Options) *Online { return newOnline(opt, nil) }

// newOnline returns the engine over m, starting at m.Init(), or over the
// register of opt.Initial when m is nil. A Model's values are states, not
// unique written values, so it keeps no uniqueness bookkeeping.
func newOnline(opt Options, m Model) *Online {
	if opt.MaxStates == 0 {
		opt.MaxStates = 4 << 20
	}
	o := &Online{
		opt:      opt,
		model:    m,
		pendLo:   simtime.Never,
		frontier: []olState{{last: opt.Initial}},
	}
	if m != nil {
		o.frontier[0].last = m.Init()
		o.results = make(map[int]string)
	} else if !opt.AssumeUnique {
		o.writers = make(map[string]int)
		o.observed = make(map[string]int)
	}
	return o
}

// Begin declares an in-flight invocation on node at time inv. The checker
// holds its processing bound at the invocation until Add supplies the
// completed (or Finish-time pending) operation, because a not-yet-completed
// operation may still have to be linearized before already-completed ones.
// Invocations are tracked per (node, inv), so a node's next Begin may
// safely arrive before the Add completing its previous operation when both
// fall at the same instant.
func (o *Online) Begin(node ta.NodeID, inv simtime.Time) {
	if o.finished {
		return
	}
	o.open.add(node, inv)
}

// Add submits an operation, normally at its completion; pending operations
// (Res == Never) are meant to be submitted just before Finish. Submission
// order is the canonical arrival order used for tie-breaking and error
// reporting, so replaying a batch history must Add in history order.
func (o *Online) Add(op Op) {
	if o.finished {
		return
	}
	id := o.nextID
	o.nextID++
	o.open.resolve(op.Node, op.Inv)
	if o.writers != nil {
		if op.Kind == Write {
			if j, dup := o.writers[op.Value]; dup {
				if o.dupErr == nil {
					o.dupErr = fmt.Errorf("linearize: value %q written twice (ops %d and %d)", op.Value, j, id)
				}
			} else {
				o.writers[op.Value] = id
			}
		} else if !op.Pending() {
			if _, seen := o.observed[op.Value]; !seen {
				o.observed[op.Value] = id
			}
		}
	}
	if o.failed {
		return // verdict already settled; keep only the bookkeeping above
	}
	lo := op.Inv.Add(o.opt.MinAfterInv)
	if o.opt.Widen > 0 {
		lo = lo.Add(-o.opt.Widen)
	}
	if lo < 0 {
		lo = 0
	}
	hi := simtime.Never
	if !op.Pending() {
		hi = op.Res.Add(o.opt.Widen).Add(o.opt.ShiftFuture)
		if op.Kind == Call {
			o.results[id] = op.Result
		}
	} else {
		o.pendLo = min(o.pendLo, lo)
	}
	i := len(o.window)
	o.window = append(o.window, olIv{
		id: id, kind: op.Kind, value: op.Value, lo: lo, hi: hi, pending: op.Pending(),
	})
	o.byHi, o.byLo = o.insert(o.byHi, i, true), o.insert(o.byLo, i, false)
}

// insert adds window index i, the newest op, to byHi or byLo after every
// entry that does not follow it: by a walk back from the tail, which ops
// arriving in about completion order end within a step or two, or past 8
// steps by a binary search (a batch history in any order: O(log n) per op).
func (o *Online) insert(order []int, i int, byHi bool) []int {
	p := len(order)
	for p > 0 && len(order)-p < 8 && o.follows(order[p-1], i, byHi) {
		p--
	}
	if p > 0 && len(order)-p == 8 {
		p = sort.Search(p, func(k int) bool { return o.follows(order[k], i, byHi) })
	}
	order = append(order, i)
	copy(order[p+1:], order[p:])
	order[p] = i
	return order
}

// follows reports whether op j comes after op i, a later arrival, in byHi's or byLo's order.
func (o *Online) follows(j, i int, byHi bool) bool {
	x, y := &o.window[j], &o.window[i]
	return byHi && x.hi > y.hi || (!byHi || x.hi == y.hi) && x.lo > y.lo
}

// Advance informs the checker that no operation will be invoked before
// watermark, processes every deadline that is now settled, and
// garbage-collects them from the window. Watermarks need not be monotone;
// a stale bound simply settles nothing new.
func (o *Online) Advance(watermark simtime.Time) {
	if o.finished {
		return
	}
	if o.failed { // verdict settled: the window is garbage
		o.window, o.byHi, o.byLo = o.window[:0], o.byHi[:0], o.byLo[:0]
		return
	}
	o.drain(o.effBound(watermark), false)
}

// effBound converts the invocation watermark into the largest deadline
// bound that is safe to process: future windows cannot open before any of
// the candidate terms, and cannot close before w itself (the earliest
// invocation's window-open is the earliest one: adding keeps order); nor
// may it pass a pending op's lo (pendLo: pending ops stay until Finish).
func (o *Online) effBound(w simtime.Time) simtime.Time {
	a := o.open.earliest(w).Add(o.opt.MinAfterInv)
	if o.opt.Widen > 0 {
		a = a.Add(-o.opt.Widen)
	}
	return min(w, a, o.pendLo)
}

// Finish settles every remaining deadline and returns the verdict; it is
// idempotent, and the Result is identical to the batch checker's on the
// same operation sequence. Open invocations that never completed should be
// Added as pending operations before calling Finish; reads and unobserved
// writes among them are dropped exactly as in the batch checker; Calls
// are kept, their results unread.
func (o *Online) Finish() Result {
	if o.finished {
		return o.final
	}
	o.finished = true
	// Value-uniqueness violations take priority over (and report without)
	// search results, mirroring the batch checker's construction errors.
	if o.writers != nil {
		if o.dupErr != nil {
			o.final = Result{OK: false, Reason: o.dupErr.Error()}
			return o.final
		}
		badID, badVal := -1, ""
		for v, id := range o.observed {
			if v == o.opt.Initial {
				continue
			}
			if _, ok := o.writers[v]; ok {
				continue
			}
			if badID < 0 || id < badID {
				badID, badVal = id, v
			}
		}
		if badID >= 0 {
			o.final = Result{OK: false, Reason: fmt.Sprintf("linearize: value %q read but never written", badVal)}
			return o.final
		}
	}
	if !o.failed {
		// A pending read returned nothing, and a pending write nobody read
		// may never have taken effect: both may simply not have happened.
		// An observed pending write must be placeable (unbounded window).
		wasObserved := o.observedValues()
		for i := range o.window {
			iv := &o.window[i]
			iv.closed = iv.pending && iv.kind != Call && (iv.kind == Read || !wasObserved(iv.value))
		}
		o.compact()
		o.drain(0, true)
	}
	if o.failed {
		o.final = Result{OK: false, Reason: o.failReason, States: o.states, Pruned: o.pruned}
	} else {
		o.final = Result{OK: true, States: o.states, Pruned: o.pruned}
	}
	o.window, o.byHi, o.byLo, o.remap, o.frontier, o.open, o.results = nil, nil, nil, nil, nil, nil, nil
	o.cands, o.greedy, o.memo, o.nf, o.slab, o.writers, o.observed = nil, nil, keySet{}, frontierBuilder{}, nil, nil, nil
	return o.final
}

// observedValues returns the was-this-value-read-by-a-completed-read
// predicate used to resolve pending writes. Under AssumeUnique the exact
// map is not kept; the still-windowed completed reads stand in for it,
// which is sound whenever reads that observed a pending write are still
// unsettled at Finish — always true for plain linearizability, where such
// a read's window closes after the write's invocation holds the bound.
func (o *Online) observedValues() func(string) bool {
	if o.observed != nil {
		return func(v string) bool { _, ok := o.observed[v]; return ok }
	}
	seen := make(map[string]bool)
	for i := range o.window {
		if o.window[i].kind == Read && !o.window[i].pending {
			seen[o.window[i].value] = true
		}
	}
	return func(v string) bool { return seen[v] }
}

// drain settles every unprocessed deadline strictly below bound (every
// deadline when all is set) in canonical (hi, lo, arrival) order, then
// compacts the window. The canonical order makes the stage sequence — and
// therefore the verdict and States — a function of the submitted
// operations alone, independent of Advance slicing.
//
// The window keeps both orders a drain needs as ops arrive, so a drain
// sorts nothing. Its deadlines are the prefix of byHi below the bound (a
// pending op's hi is Never). Each stage's candidates, the ops that may
// precede its target, are the open ops other than the target with
// lo ≤ target.hi; the targets' hi only grows along a drain, so one walk
// along byLo lists them all: each stage moves the ops with lo up to its
// target's hi into o.cands and takes its target out again, both keeping
// o.cands in lo order (an earlier target that joins later, its lo above
// its own hi, is skipped as closed). A stage pays for its candidates, not
// for the window. Their order does not reach the verdict, States or
// Pruned: commit runs once per fresh state and placeable candidate in any
// order, the frontier builder sorts its states by key, and greedy reads go
// in lo order, reads with equal lo being interchangeable; so a MaxStates
// cut-off fires in the same stage at the same count.
//
// Two filters are implied by drain's order, so the candidates need neither.
// A pending op's fate needs no test: outside Finish, drain settles only
// deadlines below effBound, which is at most every pending op's lo, so a
// pending op fails lo ≤ target.hi; in Finish every pending op left in the
// window is a write or a Call, and either must be placed. And no state can
// strand an open op, leaving its window closed below the state's ℓ:
// deadlines settle in hi order and an op arriving later closes at or after
// the watermark, so every open op outside a state's early set has
// hi ≥ target.hi, while ℓ, the largest lo placed, is at most target.hi.
func (o *Online) drain(bound simtime.Time, all bool) {
	due := o.byHi
	for !all && len(due) > 0 && o.window[due[len(due)-1]].hi >= bound {
		due = due[:len(due)-1]
	}
	if len(due) == 0 {
		return
	}
	o.cands = o.cands[:0]
	next := 0 // the first byLo entry not yet listed
	for _, di := range due {
		for ; next < len(o.byLo) && o.window[o.byLo[next]].lo <= o.window[di].hi; next++ {
			if i := o.byLo[next]; !o.window[i].closed {
				o.cands = append(o.cands, i)
			}
		}
		if p := slices.Index(o.cands, di); p >= 0 {
			o.cands = append(o.cands[:p], o.cands[p+1:]...)
		}
		if !o.failed {
			o.stage(di)
			if o.opt.Yield != nil {
				o.opt.Yield()
			}
		}
		o.window[di].closed = true
		delete(o.results, o.window[di].id)
	}
	o.compact()
}

// compact drops the closed ops from the window and renumbers both orders.
func (o *Online) compact() {
	remap, n := o.remap[:0], 0
	for _, iv := range o.window {
		remap = append(remap, -1)
		if !iv.closed {
			remap[len(remap)-1], o.window[n] = n, iv
			n++
		}
	}
	o.window, o.remap = o.window[:n], remap
	for _, order := range []*[]int{&o.byHi, &o.byLo} {
		kept := (*order)[:0]
		for _, i := range *order {
			if remap[i] >= 0 {
				kept = append(kept, remap[i])
			}
		}
		*order = kept
	}
}

// stage processes one deadline: every frontier state either discards it
// from its early set (already linearized) or searches for the commit
// sequences that linearize it now. The next frontier is the deduplicated
// union; empty means no linearization order exists.
func (o *Online) stage(di int) {
	target := &o.window[di]
	if o.opt.ApproxEps > 0 && o.stageApprox(target) {
		return
	}
	o.memo.reset()
	o.nf.reset()
	for _, s := range o.frontier {
		if p := indexOfID(s.early, target.id); p >= 0 {
			o.nf.emit(olState{early: o.without(s.early, p), last: s.last, ell: s.ell})
			continue
		}
		o.commit(s, target)
		if o.failed {
			return
		}
	}
	o.frontier = o.nf.finish(o.frontier[:0])
	if len(o.frontier) == 0 {
		o.failed = true
		o.failReason = "no valid linearization order exists"
	}
}

// stageApprox is the ε-approximate fast path for a settling deadline. It
// applies when the frontier is a single state and every operation that
// could precede the target opens only inside the ApproxEps band below the
// target's deadline — concurrency below the monitor's timing precision.
// It then commits greedily with no memo, frontier builder, or dfs:
//
//   - in-band reads of the state's current value are linearized ahead of
//     the target in ascending-lo order, which loses no witnesses (a read
//     of the current value can always be exchanged earlier: it observes
//     the same value there and tightens no other operation's window);
//   - in-band writes are *pruned*: orders placing them ahead of the
//     target are abandoned unexplored. In-band reads of other values
//     could only precede the target via one of those writes, so the
//     write's prune covers them.
//
// Reports whether the stage was handled; false falls back to the exact
// search, as it always does over a Model: a Call target or candidate is
// neither a read nor a write. Soundness: the surviving state is a real
// placement, so a final OK names a concrete witness order; every prune is
// counted, so a later failure reports ε-uncertain instead of a definite
// violation.
func (o *Online) stageApprox(target *olIv) bool {
	if len(o.frontier) != 1 || o.model != nil {
		return false
	}
	s := o.frontier[0]
	if p := indexOfID(s.early, target.id); p >= 0 {
		// Already linearized ahead of its deadline: discard from the early
		// set — exact, no search needed.
		o.frontier[0].early = o.without(s.early, p)
		return true
	}
	band := target.hi.Add(-o.opt.ApproxEps)
	skipped := 0
	pre := o.greedy[:0] // window indexes of in-band reads of s.last
	for _, i := range o.cands {
		x := &o.window[i]
		if indexOfID(s.early, x.id) >= 0 {
			continue
		}
		if x.lo <= band {
			return false // opens outside the ε band: its order is searchable
		}
		if x.kind == Read && x.value == s.last {
			pre = append(pre, i)
		} else if x.kind == Write {
			skipped++
		}
	}
	o.greedy = pre
	ns := s
	for _, i := range pre {
		var ok bool
		if ns, ok = o.place(ns, &o.window[i]); !ok {
			return false // greedy placement fails; let the exact stage decide
		}
	}
	var ok bool
	if ns, ok = o.place(ns, target); !ok {
		return false
	}
	if len(pre) > 0 {
		early := append(o.carve(len(s.early)+len(pre)), s.early...)
		for _, i := range pre {
			early = insertID(early, o.window[i].id)
		}
		ns.early = early
	}
	o.states++
	if o.states > o.opt.MaxStates {
		o.failed = true
		o.failReason = fmt.Sprintf("linearize: state budget (%d) exhausted", o.opt.MaxStates)
		return true
	}
	o.pruned += skipped
	o.frontier[0] = ns
	return true
}

// commit explores linearizing zero or more of the stage's candidates and
// then the target, with greedy earliest-point placement per step. Each call
// is one search state, shared with the batch wrapper's accounting.
func (o *Online) commit(s olState, target *olIv) {
	o.states++
	if o.states > o.opt.MaxStates {
		o.failed = true
		o.failReason = fmt.Sprintf("linearize: state budget (%d) exhausted", o.opt.MaxStates)
		return
	}
	// A single hard stage can explore millions of states; the between-
	// stage yield in drain never runs inside it, so burst-capping needs a
	// yield on the state counter as well.
	if o.opt.Yield != nil && o.states&0xff == 0 {
		o.opt.Yield()
	}
	// Without candidates nothing recurses and frontier states are distinct,
	// so the memo cannot hit.
	if len(o.cands) > 0 {
		o.memo.arena = appendStateKey(o.memo.arena, s, true)
		if _, fresh := o.memo.intern(); !fresh {
			return
		}
	}
	// Dominated-branch elimination: an open read of the state's current
	// value never needs its own branch. In every witness extending s it is
	// linearized before the next write (that is where it observes s.last),
	// and when the target is a read the placed-now and placed-later orders
	// converge on the same state — the reads change neither the value nor
	// any later placement's feasibility (their lo is at most target.hi,
	// which every still-open window reaches past). Committing them all
	// greedily in ascending-lo order therefore loses no witnesses, and it
	// removes the 2^reads branching that made hot-key windows under
	// pipelined load exhaust the state budget. (o.greedy is free again
	// before the recursion below.)
	greedy := o.greedy[:0]
	for _, i := range o.cands {
		x := &o.window[i]
		if x.kind == Read && x.value == s.last && indexOfID(s.early, x.id) < 0 {
			greedy = append(greedy, i)
		}
	}
	o.greedy = greedy
	if len(greedy) > 0 {
		ns := s
		early := append(o.carve(len(s.early)+len(greedy)), s.early...)
		for _, i := range greedy {
			var ok bool
			if ns, ok = o.place(ns, &o.window[i]); !ok {
				// ℓ only grows along any extension, so a read unplaceable
				// here is unplaceable in every extension: dead state.
				return
			}
			early = insertID(early, o.window[i].id)
		}
		ns.early = early
		s = ns
	}
	if ns, ok := o.place(s, target); ok {
		o.nf.emit(ns)
	}
	for _, i := range o.cands {
		x := &o.window[i]
		if indexOfID(s.early, x.id) >= 0 {
			continue
		}
		ns, ok := o.place(s, x)
		if !ok {
			continue
		}
		ns.early = insertID(append(o.carve(len(s.early)+1), s.early...), x.id)
		o.commit(ns, target)
		if o.failed {
			return
		}
	}
}

// place linearizes iv next in state s at the earliest feasible point,
// returning the successor state (early is aliased; callers copy).
func (o *Online) place(s olState, iv *olIv) (olState, bool) {
	point := iv.lo
	if s.ell > point {
		point = s.ell
	}
	if point > iv.hi {
		return olState{}, false
	}
	last := s.last
	switch iv.kind {
	case Write:
		last = iv.value
	case Read:
		if iv.value != last {
			return olState{}, false
		}
	case Call:
		var res string
		last, res = o.model.Apply(last, iv.value)
		if !iv.pending && res != o.results[iv.id] {
			return olState{}, false
		}
	}
	ell := s.ell
	if iv.lo > ell {
		ell = iv.lo
	}
	return olState{early: s.early, last: last, ell: ell}, true
}

// frontierBuilder accumulates emitted states, merging duplicates by
// (early, last) with the dominating (minimum) ℓ, and yields them in a
// canonical order: that of their keys (appendStateKey without ℓ).
type frontierBuilder struct {
	keys  keySet // key i is out[i]'s
	out   []olState
	order []int
}

// reset empties the builder for the next stage.
func (b *frontierBuilder) reset() {
	b.keys.reset()
	b.out = b.out[:0]
}

func (b *frontierBuilder) emit(s olState) {
	b.keys.arena = appendStateKey(b.keys.arena, s, false)
	if i, fresh := b.keys.intern(); !fresh {
		if s.ell < b.out[i].ell {
			b.out[i].ell = s.ell
		}
		return
	}
	b.out = append(b.out, s)
}

// finish appends the states to dst in the order of their keys
// (bytes.Compare orders them as their strings would).
func (b *frontierBuilder) finish(dst []olState) []olState {
	order := b.order[:0]
	for i := range b.out {
		order = append(order, i)
	}
	slices.SortFunc(order, func(x, y int) int { return bytes.Compare(b.keys.key(x), b.keys.key(y)) })
	b.order = order
	for _, i := range order {
		dst = append(dst, b.out[i])
	}
	return dst
}

// appendStateKey renders a state as a count-prefixed varint sequence,
// injective because every field before the variable-length value is
// self-delimiting (varints, not decimal text: key construction sits on the
// commit hot path, and decimal formatting of large ids dominated
// live-monitoring CPU profiles). The memo's keys carry ℓ, since a
// later-visited state with a smaller ℓ has strictly more continuations;
// the frontier's do not, since deduplication folds it.
func appendStateKey(dst []byte, s olState, ell bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.early)))
	for _, id := range s.early {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	if ell {
		dst = binary.AppendVarint(dst, int64(s.ell))
	}
	return append(dst, s.last...)
}

// keySet is a stage's set of keys, held back to back in one arena reused
// from stage to stage: key i is arena[ends[i]:ends[i+1]]. A lookup scans
// the keys while there are fewer than linearKeys, and from then on probes
// an open-addressed index over them that is rebuilt as the set grows.
type keySet struct {
	arena []byte
	ends  []int
	slots []int32 // key index + 1, or 0; current while there are ≥ linearKeys keys
}

const linearKeys = 8

var keySeed = maphash.MakeSeed()

func (k *keySet) key(i int) []byte { return k.arena[k.ends[i]:k.ends[i+1]] }

// reset empties the set for the next stage (before its first key), or
// drops the storage of one a hard stage grew large, which would otherwise
// stay at its peak.
func (k *keySet) reset() {
	if len(k.ends)-1 > 4096 {
		*k = keySet{}
	}
	k.arena, k.ends = k.arena[:0], append(k.ends[:0], 0)
}

// intern adds the key appended to the arena after the last one, unless an
// equal key is held: then that copy is taken off the arena again. It
// returns the key's index and whether the key is new.
func (k *keySet) intern() (int, bool) {
	n := len(k.ends) - 1
	key := k.arena[k.ends[n]:]
	if n < linearKeys {
		for i := range n {
			if bytes.Equal(k.key(i), key) {
				k.arena = k.arena[:k.ends[n]]
				return i, false
			}
		}
	} else if j := k.slot(key); k.slots[j] != 0 {
		k.arena = k.arena[:k.ends[n]]
		return int(k.slots[j] - 1), false
	} else {
		k.slots[j] = int32(n + 1)
	}
	k.ends = append(k.ends, len(k.arena))
	if n+1 == linearKeys || n+1 > linearKeys && 2*(n+1) > len(k.slots) {
		size := 4 * linearKeys
		for size < 4*(n+1) {
			size *= 2
		}
		k.slots = append(k.slots[:0], make([]int32, size)...)
		for i := range n + 1 {
			k.slots[k.slot(k.key(i))] = int32(i + 1)
		}
	}
	return n, true
}

// slot is the index slot that holds key, or the empty one where it goes.
func (k *keySet) slot(key []byte) int {
	mask := len(k.slots) - 1
	j := int(maphash.Bytes(keySeed, key)) & mask
	for k.slots[j] != 0 && !bytes.Equal(k.key(int(k.slots[j]-1)), key) {
		j = (j + 1) & mask
	}
	return j
}

// slabInts is the size of one slab of early sets.
const slabInts = 512

// carve returns an empty slice with room for n ids, cut from the slab the
// stages' early sets share. A slab is never reused: a full one stays with
// the sets that still hold it and a new one is started. The three-index
// cut keeps an append past n from writing into the next set.
func (o *Online) carve(n int) []int {
	if len(o.slab)+n > cap(o.slab) {
		o.slab = make([]int, 0, max(slabInts, n))
	}
	l := len(o.slab)
	o.slab = o.slab[:l+n]
	return o.slab[l : l : l+n]
}

// without returns a copy of the ascending ids minus its p-th entry.
func (o *Online) without(ids []int, p int) []int {
	return append(append(o.carve(len(ids)-1), ids[:p]...), ids[p+1:]...)
}

// insertID adds id to the ascending ids, which have room for it.
func insertID(ids []int, id int) []int {
	p, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, p, id)
}

// indexOfID finds id in the ascending slice, or -1.
func indexOfID(ids []int, id int) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return lo
	}
	return -1
}
