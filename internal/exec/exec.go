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
// Four structures keep the hot path cheap as systems grow and runs
// lengthen:
//
//   - a deadline heap (sched.go), a lazily invalidated binary min-heap of
//     every component's Due, and a registration-ordered heap of the
//     components due at the current instant,
//   - a header memo keeps, per action header (Name, Node, Peer, Kind),
//     which subscriptions match and whether Hide hides it, indexed by
//     node, peer and kind and then searched by name, so dispatch and
//     recording evaluate no predicate and hash no string per action,
//   - an interest-declaration pass (coalesce.go) advances time directly
//     to the next observable event, collapsing runs of unobservable TICK
//     and idle-step deadlines (ta.Coalescable) into arithmetic jumps; a
//     system with no Coalescable component skips the pass, and
//   - an optional sharded mode (shard.go) partitions the components into
//     lanes that advance concurrently in conservative rounds: every lane
//     fires its deadlines up to the earliest pending deadline plus the
//     links' d1, cross-shard actions are buffered into mailboxes, and a
//     barrier after each round delivers the mail and merges events in
//     canonical order.
//
// The dispatch order is fixed: at each instant, rounds of registration-
// ordered firings (sched.go's fireDue), each action delivered to its
// subscribers in registration order. Deterministic seeds produce
// byte-identical traces, which TestIndexedTraceGolden and the experiments'
// golden hashes pin, and byte-identical observable actions on the
// coalesced and sharded paths (which elide only hidden TICK events and
// empty step firings; see DisableCoalescing for the dense oracle and
// SetShards for the sharded configuration).
package exec

import (
	"errors"
	"fmt"

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
	// schedules).
	dstIdx int32
}

// header is the memoized verdict for one action header, the fields a
// subscription or a Hide predicate may inspect: the subscriptions it
// routes to, in registration order, and whether it is hidden.
type header struct {
	name       string
	node, peer ta.NodeID
	kind       ta.Kind
	hits       []int32
	hidden     bool
}

// headerMemo is one lane's header memo. A header whose Node and Peer lie
// in [-1, span-1) and whose Kind is below 4 finds its slot by arithmetic;
// the slot holds the few names its (node, peer, kind) takes. The table is
// rebuilt wider (and refilled) when a higher id appears, up to one id per
// registered component — a node id is below the node count — so the
// memory tracks the system's size; any other header goes to the overflow
// list.
type headerMemo struct {
	span  int
	slots [][]header // by ((Node+1)·span + Peer+1)·4 + Kind
	wide  []header
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

	chainDepth int
	scratch    [][]ta.Action
	memo       headerMemo

	// Sharded-round buffers (unused on the root lane). events holds the
	// lane's recorded events in canonical lane-local order, consumed from
	// evHead by the bounded barrier merge (the settled prefix is emitted,
	// the tail carried over); evCount counts events when nothing records
	// them (the KeepTrace-off, no-sink fast path); mail holds
	// cross-shard deliveries awaiting the barrier. round and firing stamp
	// each buffered event with its merge key, and frontier is the
	// high-water bound of the lane's executed region — every local
	// deadline strictly before it has fired (see shard.go).
	events   []laneEvent
	evHead   int
	evCount  int
	mail     []mailEntry
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
	comps  []ta.Automaton
	index  map[string]int
	subs   []subscription
	hidden func(ta.Action) bool
	sinks  []Sink

	seq    int
	inited bool
	err    error

	// root is the sequential execution lane; root.now is the global clock.
	root lane

	// dense disables tick/step coalescing (coalesce.go): every Coalescable
	// component's deadlines are enumerated one heap event at a time, as
	// they were before coalescing existed. It is the differential oracle
	// for the coalesced fast path: dense and coalesced executions of the
	// same seeded system must agree on every observable action.
	dense bool

	// coalOf maps every component index to its ta.Coalescable view (nil
	// when the component does not implement it), so the sweep makes no
	// type assertion; ncoal counts the non-nil views.
	coalOf []ta.Coalescable
	ncoal  int

	// Sharded-mode state; see shard.go. shardCfg is the requested
	// configuration; lanes and compShard the active partition once
	// initShards accepts it; shardReason records why a requested partition
	// was not activated.
	shardCfg    *shardConfig
	lanes       []*lane
	compShard   []int32
	shardOn     bool
	shardReason string

	// KeepTrace controls whether events are recorded. Disable for
	// throughput benchmarks; sinks still observe.
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
		// Late registration: size the scheduler and pick up the
		// newcomer's deadline immediately.
		s.rebuildCoal()
		s.root.sched.grow(len(s.comps))
		s.poll(&s.root, idx)
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
		s.poll(&s.root, idx)
	}
}

// ConnectHeader routes every dispatched action matching match to dst as an
// input. A single action may have several subscribers (broadcast actions),
// matching the composition rule that an output is an input of every
// automaton whose signature contains it.
//
// match must depend only on the action's Name, Node, Peer, and Kind — never
// its Payload. Subscriptions are routed through a memo keyed on those four
// fields, filled lazily, so the predicate runs once per distinct action
// header rather than once per dispatched action. The contract is the
// caller's to keep: a payload-inspecting predicate will be consulted with an
// arbitrary representative payload and its verdict reused. Under sharded
// execution (SetShards) predicates are additionally consulted from
// concurrent lanes, so they must not read mutable state.
func (s *System) ConnectHeader(match func(ta.Action) bool, dst ta.Automaton) {
	idx := int32(-1)
	if i, ok := s.index[dst.Name()]; ok && s.comps[i] == dst {
		idx = int32(i)
	}
	s.subs = append(s.subs, subscription{match: match, dst: dst, dstIdx: idx})
	s.forget()
}

// ConnectName routes every action with exactly the given name to dst,
// via the header memo.
func (s *System) ConnectName(name string, dst ta.Automaton) {
	s.ConnectHeader(func(a ta.Action) bool { return a.Name == name }, dst)
}

// Hide reclassifies matching actions as internal in the recorded trace,
// realizing the hiding operator of §2.1. It does not affect routing.
//
// match must depend only on the action's Name, Node, Peer, and Kind, as
// ConnectHeader's predicates must: its verdict is memoized per action
// header alongside the routes, and under sharded execution it is
// consulted from concurrent lanes.
func (s *System) Hide(match func(ta.Action) bool) {
	prev := s.hidden
	s.hidden = func(a ta.Action) bool {
		if prev != nil && prev(a) {
			return true
		}
		return match(a)
	}
	s.forget()
}

// forget drops every lane's header memo once the wiring or the hiding changes.
func (s *System) forget() {
	s.root.memo = headerMemo{}
	for _, ln := range s.lanes {
		ln.memo = headerMemo{}
	}
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
// sinks) via emit. On shard lanes the event is buffered with its canonical
// merge key instead and emitted at the round barrier (shard.go); the root
// lane records immediately.
//
// Sequence-number semantics, pinned: Seq counts every dispatched event,
// recorded or not. When nothing observes events (observing() false) the
// fast paths only advance the count, so toggling KeepTrace — or attaching
// a sink — mid-run resumes numbering exactly where a fully recorded run
// would be: the events recorded after a re-enable carry the same Seq
// values they would in an always-on run, and the gap in Seq is precisely
// the number of unobserved events. Both fast paths (the root
// s.seq++ and the shard-lane evCount, folded into s.seq at the barrier
// merge) share the observing() predicate so sinks are respected everywhere;
// hidden is the Hide verdict for a's header.
func (s *System) record(ln *lane, a ta.Action, hidden bool, src string) {
	if ln.shard >= 0 {
		if !s.observing() {
			// Nobody is looking: count the event for sequence-number
			// continuity and skip buffering entirely.
			ln.evCount++
			return
		}
		ln.events = append(ln.events, laneEvent{
			a: a, src: src, at: ln.now, round: ln.round, firing: ln.firing, hidden: hidden,
		})
		return
	}
	if !s.observing() {
		s.seq++
		return
	}
	if hidden {
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

// headerFor returns the memoized verdict for a's header, computing it on
// first sight. Predicates depend only on the header, so one representative
// action decides it for every action sharing the header. The memo is
// per-lane so concurrent shard lanes never share it.
func (s *System) headerFor(ln *lane, a ta.Action) *header {
	m := &ln.memo
	node, peer, kind := int(a.Node)+1, int(a.Peer)+1, int(a.Kind)
	list := &m.wide
	if node >= 0 && peer >= 0 && uint(kind) < 4 && max(node, peer) <= len(s.comps) {
		if max(node, peer) >= m.span {
			span := min(max(2*m.span, node+1, peer+1, 8), len(s.comps)+1)
			*m = headerMemo{span: span, slots: make([][]header, span*span*4)}
		}
		list = &m.slots[(node*m.span+peer)*4+kind]
	}
	for i := range *list {
		if h := &(*list)[i]; h.name == a.Name && h.node == a.Node && h.peer == a.Peer && h.kind == a.Kind {
			return h
		}
	}
	h := header{name: a.Name, node: a.Node, peer: a.Peer, kind: a.Kind, hidden: s.hidden != nil && s.hidden(a)}
	for i := range s.subs {
		if s.subs[i].match(a) {
			h.hits = append(h.hits, int32(i))
		}
	}
	*list = append(*list, h)
	return &(*list)[len(*list)-1]
}

// dispatch records the action and delivers it to all subscribers,
// recursively dispatching any same-instant reactions. Subscribers are
// visited in registration order: the header memo lists subscription
// indices sorted by registration.
func (s *System) dispatch(ln *lane, a ta.Action, src string) {
	if *ln.err != nil {
		return
	}
	ln.chainDepth++
	if ln.chainDepth > maxChain {
		ln.fail(fmt.Errorf("%w (action %s from %s at %v)", ErrChain, a.Name, srcLabel(src), ln.now))
		return
	}
	h := s.headerFor(ln, a)
	s.record(ln, a, h.hidden, src)
	for _, i := range h.hits {
		s.deliverTo(ln, i, a, src)
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
	if sub.dstIdx >= 0 {
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
	// Late-resolved destinations: a subscription made before its target's Add
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
	for i := range s.comps {
		s.poll(s.laneOf(i), i)
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

// nextDue returns the lane's earliest pending deadline.
func (s *System) nextDue(ln *lane) (simtime.Time, bool) {
	next, found := ln.sched.peek()
	// Rare: a late Add or Replace can park an already-due component in the
	// dueNow heap outside a fireDue sweep; the next sweep fires it, but
	// nextDue must still report it so the drivers know there is work at or
	// before now. Empty in steady state, so this loop normally costs nothing.
	for _, idx := range ln.sched.dueNow {
		if due, ok := s.comps[idx].Due(ln.now); ok && (!found || due.Before(next)) {
			next, found = due, true
		}
	}
	return next, found
}

// drive is the sequential executor: the ν time-passage step to each next
// deadline at or before bound, then the actions enabled there, until none
// remains in the window. It reports whether no deadline remains at all.
// Coalescing is bounded by the window: at return the skipped components'
// schedules sit exactly where the dense path would leave them at bound, so
// callers may inject actions next.
func (s *System) drive(bound simtime.Time) (quiet bool) {
	ln := &s.root
	for s.err == nil {
		s.coalesce(ln, bound)
		next, ok := s.nextDue(ln)
		if !ok {
			return true
		}
		if next.After(bound) {
			return false
		}
		if next.After(ln.now) {
			ln.now = next
		}
		s.fireDue(ln)
	}
	return false
}

// Run executes every event with time ≤ until, then advances now to until.
// It returns the first execution error.
func (s *System) Run(until simtime.Time) error {
	s.init()
	if s.shardOn {
		if s.driveSharded(until); s.err != nil {
			return s.err
		}
	} else {
		s.drive(until)
	}
	if s.err == nil && until.After(s.root.now) {
		s.root.now = until
	}
	for _, ln := range s.lanes { // none unless sharded
		ln.now = max(ln.now, s.root.now)
	}
	// Low-watermark: every event strictly before now has been emitted; a
	// subsequent Inject or Run can still produce events at now itself.
	s.flushSinks(s.root.now)
	return s.err
}

// RunQuiet executes until no deadlines remain or the time limit is hit,
// whichever comes first. It reports whether the system went quiescent.
func (s *System) RunQuiet(limit simtime.Time) (bool, error) {
	s.init()
	if s.shardOn {
		quiet := s.driveSharded(limit)
		return quiet, s.err
	}
	quiet := s.drive(limit)
	if s.err == nil {
		s.flushSinks(s.root.now)
	}
	return quiet, s.err
}
