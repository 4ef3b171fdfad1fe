// Package exec provides the discrete-event executor that composes
// executable timed automata (Definition 2.2) and produces recorded
// executions.
//
// The executor realizes admissible executions of the composed automaton:
// between events it performs time-passage steps (the ν action) that respect
// every component's Due deadline — the operational form of the ν
// preconditions in Figures 1–3 — and at each reached deadline it performs
// the enabled locally controlled actions, routing each output action to the
// components that have it as an input (composition communicates on shared
// actions, §2.1).
//
// Four fast-path structures keep the hot path sub-linear in both system
// size and simulated time:
//
//   - a deadline heap (sched.go) replaces the per-step linear scan over
//     every component's Due with a lazily invalidated binary min-heap,
//   - a routing table memoizes, per action header (Name, Node, Peer,
//     Kind), which subscriptions match, so dispatch stops re-evaluating
//     every predicate for every action,
//   - an interest-declaration pass (coalesce.go) advances time directly
//     to the next observable event, collapsing runs of unobservable TICK
//     and idle-step deadlines (ta.Coalescable) into arithmetic jumps, and
//   - an optional sharded mode (shard.go) partitions the components into
//     lanes that advance concurrently under adaptive per-lane horizons:
//     each lane publishes a conservative bound on its next observable
//     action (earliest deadline widened by NextInterest, plus incoming
//     per-edge d1 guarantees), cross-shard actions are buffered into
//     mailboxes, and lanes run ahead independently until a horizon binds;
//     barriers deliver the mail and merge events in canonical order.
//
// All preserve the dispatch order of the original linear executor (kept
// in linear.go as a differential reference): deterministic seeds produce
// byte-identical traces on the indexed path and byte-identical observable
// actions on the coalesced and sharded paths (which elide only hidden TICK
// events and empty step firings; see DisableCoalescing for the dense
// oracle and SetShardsPlanned for the sharded configuration).
package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// maxChain bounds the number of same-instant action dispatches between two
// time-passage steps, to detect zero-delay cycles in miswired systems.
const maxChain = 1 << 14

// ErrStuck reports a component that claims a due deadline but fires nothing.
var ErrStuck = errors.New("exec: component due but fired no action")

// ErrChain reports a runaway zero-delay dispatch chain.
var ErrChain = errors.New("exec: same-instant dispatch chain exceeded limit")

type subscription struct {
	match func(ta.Action) bool
	dst   ta.Automaton
	// dstIdx is dst's component index, or -1 when dst was never Added (a
	// pure observer outside the composition, which the executor never
	// schedules — matching the linear executor, which only ever polled
	// registered components).
	dstIdx int32
	// header marks match as depending only on the action's Name, Node,
	// Peer, and Kind, making the subscription eligible for the memoized
	// routing table.
	header bool
}

// routeKey is the header of an action: every field a header subscription
// may inspect. Actions sharing a key route identically.
type routeKey struct {
	name       string
	node, peer ta.NodeID
	kind       ta.Kind
}

// lane is one execution context: a clock, a deadline scheduler, and the
// dispatch scratch state. The sequential executor runs entirely on the
// root lane (shard == -1); sharded execution (shard.go) adds one lane per
// shard, each owning a disjoint set of components, and the root lane keeps
// the global clock and handles barrier-time (Init/Inject) dispatch.
//
// Every field is confined to the lane's worker during a sharded round;
// the coordinator only touches lane state between rounds (at barriers).
type lane struct {
	shard int32 // shard id, or -1 for the root lane
	now   simtime.Time

	// err points at the lane's error slot: the System error for the root
	// lane (so config-time and execution errors share one slot, as
	// before), errSlot for shard lanes (merged at barriers).
	err     *error
	errSlot error

	sched     sched
	ffScratch []int32
	hzScratch []int32

	// hCache memoizes laneHorizon between schedule mutations: every state
	// change that can move a deadline or an interest horizon funnels
	// through poll, which clears hValid. Lane-local, so no synchronization.
	hCache simtime.Time
	hValid bool

	// idle marks a lane whose last pass made no progress under window
	// lastW: rerunning it is futile until its window grows (guarantees are
	// monotone, so equality means unchanged) or its schedule mutates (poll
	// clears the flag). Cleared wholesale when the run bound changes.
	idle  bool
	lastW simtime.Time

	chainDepth int
	scratch    [][]ta.Action
	routes     map[routeKey][]int32

	// Sharded-round buffers (unused on the root lane). events holds the
	// lane's recorded events in canonical lane-local order, consumed from
	// evHead by the bounded barrier merge (the settled prefix is emitted,
	// the tail carried over); evCount counts events when nothing records
	// them (the KeepTrace-off, no-watcher fast path); mail holds
	// cross-shard deliveries awaiting the barrier, with mailMin tracking
	// per destination shard the earliest instant any buffered delivery
	// could make its destination act (the sender's published guarantee may
	// not exceed it). round and firing stamp each buffered event with its
	// merge key, and frontier is the high-water bound of the lane's
	// executed region — every local deadline strictly before it has fired
	// (see shard.go).
	events   []laneEvent
	evHead   int
	evCount  int
	mail     []mailEntry
	mailMin  []simtime.Time
	round    int32
	firing   int32
	frontier simtime.Time
}

func (ln *lane) fail(err error) {
	if *ln.err == nil {
		*ln.err = err
	}
}

// System is a composition of automata under execution. The zero value is
// not usable; construct with New.
type System struct {
	comps   []ta.Automaton
	index   map[string]int
	subs    []subscription
	slow    []int32 // indices of predicate-only (non-header) subscriptions
	hidden  func(ta.Action) bool
	watches []func(ta.Event)
	sinks   []Sink

	seq    int
	inited bool
	err    error

	// root is the sequential execution lane; root.now is the global clock.
	root lane

	// linear, when set before the system first runs, restores the original
	// O(components) scan scheduler and O(subscriptions) dispatch. It exists
	// as a differential oracle for tests and benchmarks: both paths must
	// produce byte-identical traces.
	linear bool

	// dense disables tick/step coalescing (coalesce.go): every Coalescable
	// component's deadlines are enumerated one heap event at a time, as
	// they were before coalescing existed. It is the differential oracle
	// for the coalesced fast path: dense and coalesced executions of the
	// same seeded system must agree on every observable action. The linear
	// path is always dense.
	dense bool

	// coal indexes the registered components that implement
	// ta.Coalescable; coalOf maps every component index to its Coalescable
	// view (nil when the component does not implement it), so hot paths
	// skip the repeated type assertion.
	coal   []coalEntry
	coalOf []ta.Coalescable

	// Sharded-mode state; see shard.go. shardCfg is the requested
	// configuration; lanes/compShard/laMat the active partition once
	// initShards accepts it, with laMat the per-lane-pair lookahead matrix
	// and minLA its minimum off-diagonal entry; gmat is the flattened
	// atomic guarantee matrix G[j][k] (no effect from lane j reaches lane
	// k before G[j][k]); subDelay is each subscription's minimum effect
	// delay, used to bound buffered mail; shardReason records why a
	// requested partition was not activated.
	shardCfg    *shardConfig
	lanes       []*lane
	compShard   []int32
	laMat       [][]simtime.Duration
	minLA       simtime.Duration
	gmat        []atomic.Int64
	subDelay    []simtime.Duration
	hScratch    []simtime.Time
	passProg    atomic.Bool
	active      atomic.Int32
	passSpin    bool
	shardOn     bool
	shardReason string

	// KeepTrace controls whether events are recorded. Disable for
	// throughput benchmarks; watchers still run.
	KeepTrace bool
	trace     ta.Trace
}

// New returns an empty system at time zero.
func New() *System {
	s := &System{index: make(map[string]int), KeepTrace: true}
	s.root.shard = -1
	s.root.err = &s.err
	return s
}

// Add registers a component. Component names must be unique; Add returns
// the component for call chaining convenience.
func (s *System) Add(a ta.Automaton) ta.Automaton {
	if _, dup := s.index[a.Name()]; dup {
		s.fail(fmt.Errorf("exec: duplicate component name %q", a.Name()))
		return a
	}
	idx := len(s.comps)
	s.index[a.Name()] = idx
	s.comps = append(s.comps, a)
	if s.inited {
		if s.shardOn {
			// The shard partition and its lookahead were computed from the
			// registration-time component set; growing it mid-run would
			// leave the newcomer without a lane.
			s.fail(fmt.Errorf("exec: Add(%s) after sharded execution started", a.Name()))
			return a
		}
		cc, _ := a.(ta.Coalescable)
		if cc != nil {
			s.coal = append(s.coal, coalEntry{idx: int32(idx), c: cc})
		}
		s.coalOf = append(s.coalOf, cc)
		if !s.linear {
			// Late registration: size the scheduler and pick up the
			// newcomer's deadline immediately.
			s.root.sched.grow(len(s.comps))
			s.poll(&s.root, idx)
		}
	}
	return a
}

// DisableCoalescing forces the dense-tick path: every recurring TICK and
// step deadline is enumerated as its own heap event, exactly as before
// coalescing existed. It is the differential oracle for the coalesced
// fast path (see coalesce.go) and may be toggled at any point; the
// differential tests use it to prove observable-action equivalence.
func (s *System) DisableCoalescing() { s.dense = true }

// Replace swaps the component registered under name (which the
// replacement must keep) with a, redirecting any subscriptions that
// targeted the old component and refreshing the scheduler's deadline entry
// for the slot (the old component's entry is invalidated; the
// replacement's Due is polled fresh). It is intended for installing fault
// wrappers before a system runs.
func (s *System) Replace(name string, a ta.Automaton) {
	idx, ok := s.index[name]
	if !ok {
		s.fail(fmt.Errorf("exec: Replace: no component named %q", name))
		return
	}
	if a.Name() != name {
		s.fail(fmt.Errorf("exec: Replace: replacement is named %q, want %q", a.Name(), name))
		return
	}
	if s.inited && s.shardOn {
		s.fail(fmt.Errorf("exec: Replace(%s) after sharded execution started", name))
		return
	}
	old := s.comps[idx]
	s.comps[idx] = a
	for i := range s.subs {
		if s.subs[i].dst == old {
			s.subs[i].dst = a
		}
	}
	if s.inited {
		s.rebuildCoal()
		if !s.linear {
			s.poll(&s.root, idx)
		}
	}
}

// Connect routes every dispatched action matching match to dst as an input.
// A single action may have several subscribers (broadcast actions), matching
// the composition rule that an output is an input of every automaton whose
// signature contains it.
//
// Connect is the slow path: match may inspect the payload, so it is
// re-evaluated for every dispatched action. Wiring whose predicate only
// looks at the action header should use ConnectHeader (or ConnectName),
// which dispatch resolves through a memoized routing table.
func (s *System) Connect(match func(ta.Action) bool, dst ta.Automaton) {
	s.addSub(match, dst, false)
}

// ConnectHeader is Connect for predicates that depend only on the action's
// Name, Node, Peer, and Kind — never its Payload. Such subscriptions are
// routed through a table keyed on those four fields, built lazily and
// memoized, so the predicate runs once per distinct action header rather
// than once per dispatched action. The contract is the caller's to keep: a
// payload-inspecting predicate registered here will be consulted with an
// arbitrary representative payload and its verdict reused. Under sharded
// execution (SetShardsPlanned) predicates are additionally consulted from
// concurrent lanes, so they must not read mutable state.
func (s *System) ConnectHeader(match func(ta.Action) bool, dst ta.Automaton) {
	s.addSub(match, dst, true)
}

// ConnectName routes every action with exactly the given name to dst,
// via the routing table.
func (s *System) ConnectName(name string, dst ta.Automaton) {
	s.ConnectHeader(func(a ta.Action) bool { return a.Name == name }, dst)
}

func (s *System) addSub(match func(ta.Action) bool, dst ta.Automaton, header bool) {
	idx := int32(-1)
	if i, ok := s.index[dst.Name()]; ok && s.comps[i] == dst {
		idx = int32(i)
	}
	s.subs = append(s.subs, subscription{match: match, dst: dst, dstIdx: idx, header: header})
	if !header {
		s.slow = append(s.slow, int32(len(s.subs)-1))
	}
	// Memoized routes are stale once the wiring changes.
	s.root.routes = nil
	for _, ln := range s.lanes {
		ln.routes = nil
	}
}

// Hide reclassifies matching actions as internal in the recorded trace,
// realizing the hiding operator of §2.1. It does not affect routing.
func (s *System) Hide(match func(ta.Action) bool) {
	prev := s.hidden
	s.hidden = func(a ta.Action) bool {
		if prev != nil && prev(a) {
			return true
		}
		return match(a)
	}
}

// Watch registers an observer invoked for every dispatched event, hidden or
// not, in dispatch order. Under sharded execution watchers run at round
// barriers, still in canonical event order.
func (s *System) Watch(fn func(ta.Event)) {
	s.watches = append(s.watches, fn)
}

// Now returns the current simulated time.
func (s *System) Now() simtime.Time { return s.root.now }

// Err returns the first execution error, if any.
func (s *System) Err() error { return s.err }

// Trace returns the recorded execution trace (all actions, with hidden ones
// reclassified as internal). The caller must not modify it.
func (s *System) Trace() ta.Trace { return s.trace }

func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// record logs the event and notifies every consumer (retained trace,
// watchers, sinks) via emit. On shard lanes the event is buffered with its
// canonical merge key instead and emitted at the round barrier (shard.go);
// the root lane records immediately.
//
// Sequence-number semantics, pinned: Seq counts every dispatched event,
// recorded or not. When nothing observes events (observing() false) the
// fast paths only advance the count, so toggling KeepTrace — or attaching
// a sink or watcher — mid-run resumes numbering exactly where a fully
// recorded run would be: the events recorded after a re-enable carry the
// same Seq values they would in an always-on run, and the gap in Seq is
// precisely the number of unobserved events. Both fast paths (the root
// s.seq++ and the shard-lane evCount, folded into s.seq at the barrier
// merge) share the observing() predicate so sinks are respected everywhere.
func (s *System) record(ln *lane, a ta.Action, src string) {
	if ln.shard >= 0 {
		if !s.observing() {
			// Nobody is looking: count the event for sequence-number
			// continuity and skip buffering entirely.
			ln.evCount++
			return
		}
		ln.events = append(ln.events, laneEvent{
			a: a, src: src, at: ln.now, round: ln.round, firing: ln.firing,
		})
		return
	}
	if !s.observing() {
		s.seq++
		return
	}
	if s.hidden != nil && a.Kind != ta.KindInternal && s.hidden(a) {
		a.Kind = ta.KindInternal
	}
	e := ta.Event{Action: a, At: ln.now, Src: src, Seq: s.seq}
	s.seq++
	s.emit(e)
}

// borrow copies acts into a pooled scratch buffer. The executor iterates
// action slices while dispatching recursively, and a nested Deliver or
// Fire may re-enter the component that produced them; copying up front is
// what lets components reuse their returned slices across calls (see the
// ta.Automaton contract).
func (ln *lane) borrow(acts []ta.Action) []ta.Action {
	var buf []ta.Action
	if n := len(ln.scratch); n > 0 {
		buf = ln.scratch[n-1][:0]
		ln.scratch = ln.scratch[:n-1]
	}
	return append(buf, acts...)
}

// release clears and returns a borrowed buffer to the pool. Clearing drops
// payload references so the pool never pins message bodies.
func (ln *lane) release(buf []ta.Action) {
	clear(buf)
	ln.scratch = append(ln.scratch, buf[:0])
}

// routeFor returns the header-subscription hit list for a's routing key,
// computing and memoizing it on first sight. Header predicates depend only
// on the key fields, so one representative action decides the route for
// every action sharing its key. The memo is per-lane so concurrent shard
// lanes never share map state.
func (s *System) routeFor(ln *lane, a ta.Action) []int32 {
	key := routeKey{name: a.Name, node: a.Node, peer: a.Peer, kind: a.Kind}
	if hits, ok := ln.routes[key]; ok {
		return hits
	}
	var hits []int32
	for i := range s.subs {
		if s.subs[i].header && s.subs[i].match(a) {
			hits = append(hits, int32(i))
		}
	}
	if ln.routes == nil {
		ln.routes = make(map[routeKey][]int32)
	}
	ln.routes[key] = hits
	return hits
}

// dispatch records the action and delivers it to all subscribers,
// recursively dispatching any same-instant reactions. Subscribers are
// visited in registration order on both the indexed and linear paths:
// the routing table yields header-subscription indices sorted by
// registration, merged with the predicate-only subscriptions.
func (s *System) dispatch(ln *lane, a ta.Action, src string) {
	if *ln.err != nil {
		return
	}
	ln.chainDepth++
	if ln.chainDepth > maxChain {
		ln.fail(fmt.Errorf("%w (action %s from %s at %v)", ErrChain, a.Name, srcLabel(src), ln.now))
		return
	}
	s.record(ln, a, src)
	if s.linear {
		for i := range s.subs {
			if !s.subs[i].match(a) {
				continue
			}
			s.deliverTo(ln, int32(i), a, src)
		}
		return
	}
	fast := s.routeFor(ln, a)
	if len(s.slow) == 0 {
		for _, i := range fast {
			s.deliverTo(ln, i, a, src)
		}
		return
	}
	fi, si := 0, 0
	for fi < len(fast) || si < len(s.slow) {
		if si >= len(s.slow) || (fi < len(fast) && fast[fi] < s.slow[si]) {
			s.deliverTo(ln, fast[fi], a, src)
			fi++
			continue
		}
		i := s.slow[si]
		si++
		if s.subs[i].match(a) {
			s.deliverTo(ln, i, a, src)
		}
	}
}

// srcLabel names an action source for error text; the empty source is an
// environment injection.
func srcLabel(src string) string {
	if src == "" {
		return "the environment"
	}
	return src
}

// deliverTo hands a to subscription subIdx, dispatches its same-instant
// reactions, and refreshes the subscriber's deadline entry (its Due may
// have changed with its state). On a shard lane, a subscriber owned by a
// different lane is not delivered to: the action is buffered into the
// lane's mailbox and delivered at the round barrier (shard.go).
func (s *System) deliverTo(ln *lane, subIdx int32, a ta.Action, src string) {
	sub := &s.subs[subIdx]
	if ln.shard >= 0 && s.compShard[sub.dstIdx] != ln.shard {
		ln.mail = append(ln.mail, mailEntry{sub: subIdx, a: a, at: ln.now, src: src})
		// The destination cannot act on this delivery before at + the
		// subscription's minimum effect delay; the lane's published
		// guarantee to that shard must not promise past it.
		d := s.compShard[sub.dstIdx]
		if p := ln.now.Add(s.subDelay[subIdx]); p.Before(ln.mailMin[d]) {
			ln.mailMin[d] = p
		}
		return
	}
	outs := sub.dst.Deliver(ln.now, a)
	if len(outs) > 0 {
		buf := ln.borrow(outs)
		for _, out := range buf {
			s.dispatch(ln, out, sub.dst.Name())
		}
		ln.release(buf)
	}
	if !s.linear && sub.dstIdx >= 0 {
		target := ln
		if s.shardOn && ln.shard < 0 {
			// Barrier-time dispatch (Init, Inject) delivers inline but the
			// subscriber's deadline lives in its owning lane's scheduler.
			target = s.lanes[s.compShard[sub.dstIdx]]
		}
		s.poll(target, int(sub.dstIdx))
	}
}

// Inject delivers an environment-controlled input action at the current
// time, e.g. an operation invocation driven directly by a test.
func (s *System) Inject(a ta.Action) {
	s.init()
	s.root.chainDepth = 0
	s.dispatch(&s.root, a, "")
	if s.shardOn {
		s.fireInstant()
		return
	}
	s.fireDue(&s.root)
}

func (s *System) init() {
	if s.inited {
		return
	}
	s.inited = true
	s.root.sched.grow(len(s.comps))
	s.rebuildCoal()
	// Late-resolved destinations: a Connect issued before its target's Add
	// gets its component index here, before any dispatch needs it.
	for i := range s.subs {
		if s.subs[i].dstIdx < 0 {
			if j, ok := s.index[s.subs[i].dst.Name()]; ok && s.comps[j] == s.subs[i].dst {
				s.subs[i].dstIdx = int32(j)
			}
		}
	}
	s.initShards()
	for _, c := range s.comps {
		if acts := c.Init(); len(acts) > 0 {
			buf := s.root.borrow(acts)
			for _, a := range buf {
				s.root.chainDepth = 0
				s.dispatch(&s.root, a, c.Name())
			}
			s.root.release(buf)
		}
	}
	if !s.linear {
		for i := range s.comps {
			s.poll(s.laneOf(i), i)
		}
	}
	if s.shardOn {
		s.fireInstant()
		return
	}
	s.fireDue(&s.root)
}

// laneOf returns the lane owning component i: its shard lane when sharded,
// the root lane otherwise.
func (s *System) laneOf(i int) *lane {
	if s.shardOn {
		return s.lanes[s.compShard[i]]
	}
	return &s.root
}

// fireDue fires every component of the lane whose deadline has been
// reached, repeating until the instant is quiescent.
func (s *System) fireDue(ln *lane) {
	if s.linear {
		s.fireDueLinear()
		return
	}
	s.fireDueIndexed(ln)
}

// nextDue returns the lane's earliest pending deadline.
func (s *System) nextDue(ln *lane) (simtime.Time, bool) {
	next, found := ln.sched.peek()
	// Rare: a late Add or Replace can park an already-due component in the
	// dueNow heap outside a fireDue sweep; the next sweep fires it, but
	// nextDue must still report it so Run/Step know there is work at or
	// before now. Empty in steady state, so this loop normally costs nothing.
	for _, idx := range ln.sched.dueNow {
		if due, ok := s.comps[idx].Due(ln.now); ok && (!found || due.Before(next)) {
			next, found = due, true
		}
	}
	return next, found
}

// Step advances to the next deadline and processes it. It returns false
// when no further deadline exists or an error occurred. On the coalesced
// path the next deadline is the next *observable* one: unobservable tick
// and idle-step deadlines before it are fast-forwarded, not stepped.
func (s *System) Step() bool {
	s.init()
	if s.err != nil {
		return false
	}
	if s.shardOn {
		return s.stepSharded()
	}
	ln := &s.root
	s.coalesce(ln, simtime.Never)
	next, ok := s.nextDueAny(ln)
	if !ok {
		return false
	}
	if next.After(ln.now) {
		ln.now = next // the ν time-passage step
	}
	s.fireDue(ln)
	s.flushSinks(ln.now)
	return s.err == nil
}

// nextDueAny dispatches between the linear and indexed next-deadline scans
// for the sequential paths.
func (s *System) nextDueAny(ln *lane) (simtime.Time, bool) {
	if s.linear {
		return s.nextDueLinear()
	}
	return s.nextDue(ln)
}

// Run executes every event with time ≤ until, then advances now to until.
// It returns the first execution error.
func (s *System) Run(until simtime.Time) error {
	s.init()
	if s.shardOn {
		return s.runSharded(until)
	}
	ln := &s.root
	for s.err == nil {
		// Coalescing is bounded by the run window: at return the skipped
		// components' schedules sit exactly where the dense path would
		// leave them at `until`, so callers may inject actions next.
		s.coalesce(ln, until)
		next, ok := s.nextDueAny(ln)
		if !ok || next.After(until) {
			break
		}
		if next.After(ln.now) {
			ln.now = next
		}
		s.fireDue(ln)
	}
	if s.err == nil && until.After(ln.now) {
		ln.now = until
	}
	// Low-watermark: every event strictly before ln.now has been emitted;
	// a subsequent Inject or Run can still produce events at ln.now itself.
	s.flushSinks(ln.now)
	return s.err
}

// RunQuiet executes until no deadlines remain or the time limit is hit,
// whichever comes first. It reports whether the system went quiescent.
func (s *System) RunQuiet(limit simtime.Time) (bool, error) {
	s.init()
	if s.shardOn {
		return s.runQuietSharded(limit)
	}
	ln := &s.root
	for s.err == nil {
		s.coalesce(ln, limit)
		next, ok := s.nextDueAny(ln)
		if !ok {
			s.flushSinks(ln.now)
			return true, nil
		}
		if next.After(limit) {
			s.flushSinks(ln.now)
			return false, nil
		}
		if next.After(ln.now) {
			ln.now = next
		}
		s.fireDue(ln)
	}
	return false, s.err
}
