package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements sharded conservative-parallel execution: a
// Chandy–Misra–Bryant-style scheme with adaptive per-lane horizons, built
// on the paper's own timing assumption that every message spends at least
// d1 real time in its channel (§2.3). Partition the components into shards
// so that all same-instant causality is shard-local — each node together
// with its clock/tick source and clients, every channel pinned to its
// receiver's shard — and the per-edge d1 becomes the lookahead of each
// cross-shard edge: an event fired at time u in one shard cannot affect
// another shard before u + d1 of the edge it crosses.
//
// # The guarantee matrix
//
// Instead of fixed-width rounds anchored at the global minimum deadline,
// every ordered lane pair (j, k) carries an atomically published guarantee
// G[j][k]: no effect originating in lane j reaches lane k strictly before
// G[j][k]. Lane j keeps its row current as it executes,
//
//	G[j][k] = max(previous, min(H_j + la[j][k], mailMin_j[k]))
//
// where H_j is the lane's horizon — a conservative lower bound on its next
// observable action: the minimum over its pending deadlines, each widened
// to the owning component's NextInterest when the deadline itself is
// unobservable bookkeeping (ta.Coalescable; never widened on the dense
// oracle path), and further capped by the lane's own incoming guarantees
// min_m G[m][j], since mail it has not yet received may arm earlier
// deadlines — la[j][k] is the smallest d1 over cross-shard edges from j to
// k (saturating Never when none exists), and mailMin_j[k] bounds the mail
// already buffered for k but not yet handed over. Guarantees only grow: an
// older, larger promise remains valid because every value ever stored was
// justified by the invariant at store time.
//
// Each lane independently executes every deadline strictly before its
// window bound W_k = min_j G[j][k] (and at or before the run bound),
// republishing its row after each sweep — the null message of classic CMB,
// here a handful of atomic stores. When every core has a lane to itself,
// a lane whose window stopped growing spin-chases its peers' horizons
// (bounded, with an active-lane counter detecting global exhaustion);
// otherwise lanes simply return and the coordinator reruns them while any
// lane makes progress, which on a single core turns each pass into a
// rolling wavefront: later lanes see earlier lanes' fresh horizons within
// the same sweep. This is the round batching the adaptive protocol buys:
// one pass executes as many instants as the horizons allow — many old
// fixed-width rounds' worth when mailboxes are quiet and interest horizons
// are far — before paying for a barrier.
//
// # Barriers
//
// A pass group ends when no lane can advance. The barrier then runs
// single-threaded: it delivers the buffered cross-shard mail, re-relaxes
// the guarantee matrix from the post-delivery schedules (the CMB fixpoint
// H_k = min(local_k, min_j H_j + la[j][k]), iterated to convergence — this
// is what re-raises rows previously capped by now-delivered mail), merges
// the settled prefix of the lanes' event buffers into the trace, and
// advances the sinks' low-watermark. The merge bound is the globally
// earliest pending deadline after delivery: every future event — a local
// fire or a consequence of future mail — happens at or after it, so events
// strictly before it are final. Merging in canonical (time, fire round,
// firing component index) order reconstructs the sequential indexed
// executor's dispatch order exactly — seeded sharded runs are
// byte-identical to sequential runs on every recorded event for systems
// with no coalescing divergence, and on every observable event in general.
//
// Two dynamic checks guard the conservative assumption at every barrier
// delivery: a cross-shard subscriber must not react at the same instant
// (its Deliver must return no actions — true of channels, which only
// schedule a future arrival), and the deadline it acquires must not fall
// inside the destination lane's executed frontier. A component whose
// NextInterest underestimates lies its lane's horizon upward; if the lie
// ever matters, the mail it licensed lands behind a frontier and the run
// fails loudly (exec: lookahead violation) rather than reordering events
// silently — and because every lane fires only its own deadlines in
// ascending time, events already merged remain correctly ordered even
// then.
//
// Sharding falls back to fully sequential execution — the configuration is
// simply not activated — when it cannot be proven safe: a cross-shard pair
// with zero lookahead, a component the assignment does not place, a
// subscription whose destination is not a registered component, or the
// linear oracle path. Sharded() reports whether the partition took effect.

// passSpinLimit bounds the yields a blocked lane spends chasing its peers'
// horizons within one pass before giving up and letting the coordinator
// rerun it; correctness never depends on the spin, only latency does.
const passSpinLimit = 4096

// shardConfig is a requested partition, held until init validates it.
type shardConfig struct {
	n        int
	assign   func(name string) int
	la       [][]simtime.Duration
	minDelay func(name string) simtime.Duration
}

// laneEvent is one recorded action buffered during a sharded pass, with
// the canonical merge key (at, round, firing): lane-local fire rounds and
// firing component indices reproduce the global sequential sweep's because
// same-instant causality never crosses lanes.
type laneEvent struct {
	a      ta.Action
	src    string
	at     simtime.Time
	round  int32
	firing int32
}

// mailEntry is a cross-shard delivery awaiting the barrier.
type mailEntry struct {
	sub int32
	a   ta.Action
	at  simtime.Time
	src string
}

// ShardPlan carries the per-edge timing knowledge the adaptive horizon
// protocol exploits beyond a single global lookahead.
type ShardPlan struct {
	// Lookahead[j][k] must lower-bound the delay of every cross-shard
	// causal path from shard j to shard k: an action dispatched in j at
	// time u may not make any component of k due before u +
	// Lookahead[j][k]. Use the saturating simtime.Duration(simtime.Never)
	// for pairs no action ever crosses; every entry for a pair that does
	// communicate must be strictly positive or the partition is rejected.
	Lookahead [][]simtime.Duration
	// MinDelay returns a lower bound on the named component's effect
	// delay: an input delivered to it at time u arms no deadline before
	// u + MinDelay. Channels return their d1; nil (or a zero return)
	// means no bound is claimed, which is always safe.
	MinDelay func(name string) simtime.Duration
}

// SetShardsPlanned configures conservative-parallel sharded execution from
// a full per-lane-pair lookahead plan. The assignment is consulted once,
// when the system first runs; it must place every registered component,
// keep each component and everything it can react with at the same instant
// in one shard, and pin each channel to its receiver's shard. Registration
// must be complete by then: Add and Replace fail once sharded execution
// has started.
//
// Sharding silently falls back to sequential execution when the
// configuration cannot be proven safe (a communicating pair with lookahead
// ≤ 0, an unplaced component, an unregistered subscriber, n ≤ 1, a
// malformed plan, or the linear oracle path); Sharded reports whether it
// took effect. Either way, seeded runs produce identical observable
// traces.
func (s *System) SetShardsPlanned(n int, assign func(name string) int, plan ShardPlan) {
	if s.inited {
		s.fail(fmt.Errorf("exec: SetShardsPlanned after the system started"))
		return
	}
	if n <= 1 || assign == nil {
		s.shardCfg = nil
		return
	}
	s.shardCfg = &shardConfig{n: n, assign: assign, la: plan.Lookahead, minDelay: plan.MinDelay}
}

// Sharded reports whether sharded execution is active. It is meaningful
// once the system has started running (the partition is validated on first
// run); before that it is always false.
func (s *System) Sharded() bool { return s.shardOn }

// ShardFallbackReason explains why a requested sharded configuration was
// not activated; it is empty when sharding is active or was never
// requested.
func (s *System) ShardFallbackReason() string { return s.shardReason }

// initShards validates the requested partition and builds the lanes. It
// runs inside init, after subscription destinations are resolved and
// before any component acts.
func (s *System) initShards() {
	cfg := s.shardCfg
	if cfg == nil {
		return
	}
	if s.linear {
		s.shardReason = "linear oracle path"
		return
	}
	n := cfg.n
	if len(cfg.la) != n {
		s.shardReason = "malformed lookahead matrix"
		return
	}
	for j := 0; j < n; j++ {
		if len(cfg.la[j]) != n {
			s.shardReason = "malformed lookahead matrix"
			return
		}
		for k := 0; k < n; k++ {
			if j == k {
				continue
			}
			if cfg.la[j][k] <= 0 {
				s.shardReason = "a cross-shard edge has zero lookahead"
				return
			}
		}
	}
	for i := range s.subs {
		if s.subs[i].dstIdx < 0 {
			s.shardReason = fmt.Sprintf("subscriber %s is not a registered component", s.subs[i].dst.Name())
			return
		}
	}
	shard := make([]int32, len(s.comps))
	for i, c := range s.comps {
		sh := cfg.assign(c.Name())
		if sh < 0 || sh >= n {
			s.shardReason = fmt.Sprintf("component %s has no shard assignment", c.Name())
			return
		}
		shard[i] = int32(sh)
	}
	s.compShard = shard
	s.laMat = cfg.la
	s.subDelay = make([]simtime.Duration, len(s.subs))
	if cfg.minDelay != nil {
		for i := range s.subs {
			if d := cfg.minDelay(s.subs[i].dst.Name()); d > 0 {
				s.subDelay[i] = d
			}
		}
	}
	s.gmat = make([]atomic.Int64, n*n)
	s.lanes = make([]*lane, n)
	for k := range s.lanes {
		ln := &lane{shard: int32(k), now: s.root.now}
		ln.err = &ln.errSlot
		ln.sched.grow(len(s.comps))
		ln.mailMin = make([]simtime.Time, n)
		for d := range ln.mailMin {
			ln.mailMin[d] = simtime.Never
		}
		s.lanes[k] = ln
	}
	s.shardOn = true
}

// runLanes applies fn to every lane, concurrently when the machine has
// cores to spare. Lane work only touches lane-owned state, read-only
// wiring, and the atomic guarantee matrix, so the only synchronization
// needed is the join.
func (s *System) runLanes(fn func(*lane)) {
	workers := runtime.GOMAXPROCS(0)
	if len(s.lanes) < workers {
		workers = len(s.lanes)
	}
	if workers <= 1 {
		for _, ln := range s.lanes {
			fn(ln)
		}
		return
	}
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(s.lanes) {
				return
			}
			fn(s.lanes[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 0; k < workers-1; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// laneHorizon returns H: a conservative lower bound on the next instant at
// which the lane could commit an observable action, judged from its
// current schedule and assuming no further cross-shard input. Deadlines of
// coalescable components are widened to their NextInterest — an
// unobservable TICK or idle step cannot affect another shard — except on
// the dense oracle path, where those deadlines fire for real at their
// exact dense times. Never means the lane will never act again on its own.
func (s *System) laneHorizon(ln *lane) simtime.Time {
	if ln.hValid {
		return ln.hCache
	}
	sc := &ln.sched
	h := simtime.Never
	// Pruned depth-first walk of the deadline heap: the heap invariant
	// holds on stored dues (stale or not), so once a node's due reaches
	// the best widened bound found so far, its whole subtree — dues only
	// grow downward, and widening never shrinks a bound — cannot improve
	// the horizon. When the earliest deadline is itself observable
	// (NextInterest == due, the common case outside MMT idle phases) this
	// terminates after one or two NextInterest queries instead of one per
	// heap entry.
	if len(sc.heap) > 0 {
		stack := append(ln.hzScratch[:0], 0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			e := sc.heap[i]
			if !e.due.Before(h) {
				continue
			}
			if !sc.stale(e) {
				b := e.due
				if !s.dense {
					if cc := s.coalOf[e.idx]; cc != nil {
						if t := cc.NextInterest(); t.After(b) {
							b = t
						}
					}
				}
				if b.Before(h) {
					h = b
				}
			}
			if l := 2*i + 1; l < int32(len(sc.heap)) {
				stack = append(stack, l)
				if r := l + 1; r < int32(len(sc.heap)) {
					stack = append(stack, r)
				}
			}
		}
		ln.hzScratch = stack[:0]
	}
	// Rare: components held in dueNow outside a fire sweep (late
	// Add/Replace); bound by their raw deadline.
	for _, idx := range sc.dueNow {
		if due, ok := s.comps[idx].Due(ln.now); ok && due.Before(h) {
			h = due
		}
	}
	ln.hCache = h
	ln.hValid = true
	return h
}

// inBound returns the lane's window bound W_k = min over peers j of
// G[j][k]: no effect from any other lane reaches this one strictly before
// it, so every local deadline before it may fire.
func (s *System) inBound(ln *lane) simtime.Time {
	n := len(s.lanes)
	k := int(ln.shard)
	w := simtime.Never
	for j := 0; j < n; j++ {
		if j == k {
			continue
		}
		if g := simtime.Time(s.gmat[j*n+k].Load()); g.Before(w) {
			w = g
		}
	}
	return w
}

// publish refreshes the lane's guarantee row from its current horizon.
// The horizon is capped by the lane's own incoming guarantees (mail it has
// not received yet may arm earlier deadlines — the CMB fixpoint term) and
// each entry by the earliest undelivered mail buffered for that
// destination. Entries only ever grow; the lane is its row's only writer,
// so load-max-store needs no compare-and-swap.
func (s *System) publish(ln *lane) {
	n := len(s.lanes)
	k := int(ln.shard)
	h := s.laneHorizon(ln)
	for j := 0; j < n; j++ {
		if j == k {
			continue
		}
		if g := simtime.Time(s.gmat[j*n+k].Load()); g.Before(h) {
			h = g
		}
	}
	for d := 0; d < n; d++ {
		if d == k {
			continue
		}
		p := h.Add(s.laMat[k][d])
		if m := ln.mailMin[d]; m.Before(p) {
			p = m
		}
		slot := &s.gmat[k*n+d]
		if p.After(simtime.Time(slot.Load())) {
			slot.Store(int64(p))
		}
	}
}

// relaxGuarantees recomputes the guarantee matrix single-threaded from the
// lanes' current schedules, iterating the fixpoint
//
//	H_k = min(laneHorizon_k, min_j (H_j + la[j][k]))
//
// to convergence (Gauss–Seidel; strictly positive lookaheads make it
// converge in at most n sweeps). It runs between passes, when no mail is
// buffered, and is what re-raises rows that ended the previous pass capped
// by since-delivered mail — without it the matrix could reach a stale
// fixpoint where no lane's window clears its next deadline.
func (s *System) relaxGuarantees() {
	n := len(s.lanes)
	h := s.hScratch[:0]
	for _, ln := range s.lanes {
		h = append(h, s.laneHorizon(ln))
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for k := 0; k < n; k++ {
			v := h[k]
			for j := 0; j < n; j++ {
				if j == k {
					continue
				}
				if g := h[j].Add(s.laMat[j][k]); g.Before(v) {
					v = g
				}
			}
			if v != h[k] {
				h[k] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if j == k {
				continue
			}
			p := h[j].Add(s.laMat[j][k])
			slot := &s.gmat[j*n+k]
			if p.After(simtime.Time(slot.Load())) {
				slot.Store(int64(p))
			}
		}
	}
	s.hScratch = h
}

// laneSweep advances one lane through its current window: coalesce up to
// min(w, until), then fire every deadline strictly before w and at or
// before until, exactly as the sequential drive loop does within a window.
// It reports whether anything fired and raises the lane's executed
// frontier to min(w, until+1): every local deadline strictly before the
// frontier has fired, so a later mail delivery arming a deadline behind it
// is a broken lookahead promise.
func (s *System) laneSweep(ln *lane, w, until simtime.Time) bool {
	bound := w
	if until.Before(bound) {
		bound = until
	}
	fired := false
	for *ln.err == nil {
		s.coalesce(ln, bound)
		next, ok := s.nextDue(ln)
		if !ok || next.After(until) || !next.Before(w) {
			break
		}
		if next.After(ln.now) {
			ln.now = next
		}
		s.fireDueIndexed(ln)
		fired = true
	}
	f := w
	if u := until.Add(1); u.Before(f) {
		f = u
	}
	if f.After(ln.frontier) {
		ln.frontier = f
	}
	return fired
}

// lanePass runs one lane until neither its own schedule nor its peers'
// published horizons let it continue. With a core per lane (passSpin) a
// blocked lane busy-chases its peers' guarantees, re-sweeping each time
// its window grows and parking in the active-lane counter so the pass ends
// when every lane is simultaneously out of work; otherwise it returns at
// the first bind and the coordinator reruns the lanes while any makes
// progress. Either way it reports whether it fired anything.
func (s *System) lanePass(ln *lane, until simtime.Time) bool {
	progressed := false
	working := true
	defer func() {
		if working {
			s.active.Add(-1)
		}
	}()
	spins := 0
	for *ln.err == nil {
		w := s.inBound(ln)
		if s.laneSweep(ln, w, until) {
			progressed = true
			spins = 0
		}
		s.publish(ln)
		if next, ok := s.nextDue(ln); (!ok || next.After(until)) && w.After(until) {
			// Nothing left at or before the run bound, and no peer can
			// mail anything below it either: done until the barrier.
			ln.idle = true
			ln.lastW = w
			return progressed
		}
		if !s.passSpin {
			ln.idle = !progressed
			ln.lastW = w
			return progressed
		}
		if working {
			working = false
			s.active.Add(-1)
		}
		for {
			if s.active.Load() == 0 || spins >= passSpinLimit {
				return progressed
			}
			spins++
			runtime.Gosched()
			if s.inBound(ln).After(w) {
				working = true
				s.active.Add(1)
				break
			}
		}
	}
	return progressed
}

// runPasses executes pass groups until no lane can advance without a
// barrier: relax the guarantee matrix from the current schedules, then
// rerun the lanes while any of them fires something. On a single worker
// this loop is the horizon chase — each rerun lets every lane see the
// horizons its predecessors published within the same group.
func (s *System) runPasses(until simtime.Time) {
	s.relaxGuarantees()
	for s.err == nil {
		// Spin-chasing peers' horizons only pays when every lane can hold a
		// physical core; on an oversubscribed box the yields just burn the
		// timeslice of the lane being waited on.
		s.passSpin = runtime.GOMAXPROCS(0) >= len(s.lanes) && runtime.NumCPU() >= len(s.lanes)
		s.active.Store(int32(len(s.lanes)))
		s.passProg.Store(false)
		s.runLanes(func(ln *lane) {
			if ln.idle && s.inBound(ln) == ln.lastW {
				s.active.Add(-1)
				return
			}
			if s.lanePass(ln, until) {
				s.passProg.Store(true)
			}
		})
		if !s.passProg.Load() {
			return
		}
	}
}

// eventBefore orders buffered events by the canonical merge key.
func eventBefore(a, b *laneEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.round != b.round {
		return a.round < b.round
	}
	return a.firing < b.firing
}

// mergeEvents drains the settled prefix — events strictly before bound —
// of the lanes' buffers into the emit chain (trace, sinks) in
// canonical order, assigning global sequence numbers. Each lane's buffer
// is already sorted by the merge key (lanes process instants, rounds, and
// firings in ascending order), so a k-way head merge suffices; keys never
// tie across lanes because a component fires in exactly one. The unsettled
// tail stays buffered for the next barrier.
func (s *System) mergeEvents(bound simtime.Time) {
	counted := 0
	for _, ln := range s.lanes {
		counted += ln.evCount
		ln.evCount = 0
	}
	s.seq += counted
	for {
		var best *lane
		for _, ln := range s.lanes {
			if ln.evHead >= len(ln.events) {
				continue
			}
			e := &ln.events[ln.evHead]
			if !e.at.Before(bound) {
				continue
			}
			if best == nil || eventBefore(e, &best.events[best.evHead]) {
				best = ln
			}
		}
		if best == nil {
			break
		}
		le := best.events[best.evHead]
		best.evHead++
		a := le.a
		if s.hidden != nil && a.Kind != ta.KindInternal && s.hidden(a) {
			a.Kind = ta.KindInternal
		}
		e := ta.Event{Action: a, At: le.at, Src: le.src, Seq: s.seq}
		s.seq++
		s.emit(e)
	}
	for _, ln := range s.lanes {
		if ln.evHead == 0 {
			continue
		}
		// Compact the surviving tail to the front so the buffer's capacity
		// is reused and consumed payload references are dropped.
		rem := copy(ln.events, ln.events[ln.evHead:])
		clear(ln.events[rem:])
		ln.events = ln.events[:rem]
		ln.evHead = 0
	}
}

// deliverMail performs the buffered cross-shard deliveries at the barrier.
// Per-edge order is the sending lane's dispatch order (a channel has a
// single sender, so this is its sequential delivery order); order across
// distinct destinations is immaterial because barrier deliveries must be
// reaction-free. A delivery leaving its destination due strictly inside
// the destination lane's executed frontier means the lookahead promise was
// broken — the lane already swept past that instant — so it fails the run.
// A due at or past the frontier is fine: the deadline was legitimately
// left for a later pass (including deadlines past a mid-window run bound,
// which cap the frontier at until+1).
func (s *System) deliverMail() {
	for _, ln := range s.lanes {
		for i := range ln.mail {
			if s.err != nil {
				break
			}
			m := &ln.mail[i]
			sub := &s.subs[m.sub]
			outs := sub.dst.Deliver(m.at, m.a)
			if len(outs) > 0 {
				s.fail(fmt.Errorf("exec: cross-shard subscriber %s reacted at the same instant to %s from %s at %v; sharded execution requires delayed cross-shard effects",
					sub.dst.Name(), m.a.Name, srcLabel(m.src), m.at))
				break
			}
			dl := s.lanes[s.compShard[sub.dstIdx]]
			s.poll(dl, int(sub.dstIdx))
			// poll just refreshed the scheduler's cached deadline; reading it
			// back avoids a second (potentially expensive) Due query.
			sc := &dl.sched
			if due := sc.curDue[sub.dstIdx]; sc.curOk[sub.dstIdx] && due.Before(dl.frontier) {
				s.fail(fmt.Errorf("exec: lookahead violation: %s from %s at %v made %s due at %v, inside the executed window ending %v",
					m.a.Name, srcLabel(m.src), m.at, sub.dst.Name(), due, dl.frontier))
				break
			}
		}
		clear(ln.mail)
		ln.mail = ln.mail[:0]
		for k := range ln.mailMin {
			ln.mailMin[k] = simtime.Never
		}
	}
}

// collectLaneErrs surfaces the first lane error, in shard order, as the
// system error.
func (s *System) collectLaneErrs() {
	for _, ln := range s.lanes {
		if ln.errSlot != nil {
			s.fail(ln.errSlot)
			ln.errSlot = nil
		}
	}
}

// adaptiveBarrier completes a pass group: deliver the cross-shard mail
// (against each destination lane's executed frontier), surface lane
// errors, merge the settled event prefix, and advance the sinks'
// low-watermark. The settle bound is the globally earliest pending
// deadline after delivery: every future event — a local fire or a
// consequence of future mail (whose dues the guarantee matrix bounds below
// by exactly this computation) — happens at or after it, and it is
// monotone across barriers because fires and the deadlines they arm never
// precede the minimum that admitted them. The sink watermark is the settle
// bound capped at the run bound, matching the sequential executor's
// end-of-run flush.
func (s *System) adaptiveBarrier(until simtime.Time) {
	s.deliverMail()
	s.collectLaneErrs()
	bound := simtime.Never
	if t, ok := s.minLaneDue(); ok {
		bound = t
	}
	s.mergeEvents(bound)
	if s.err == nil {
		if until.Before(bound) {
			bound = until
		}
		s.flushSinks(bound)
	}
}

// minLaneDue returns the earliest pending deadline over all lanes.
func (s *System) minLaneDue() (simtime.Time, bool) {
	next, found := simtime.Never, false
	for _, ln := range s.lanes {
		if due, ok := s.nextDue(ln); ok && (!found || due.Before(next)) {
			next, found = due, true
		}
	}
	return next, found
}

// fireInstant processes the current instant on every lane: barrier-time
// dispatch (Init, Inject) may have armed deadlines at the global now, and
// their same-instant cascades are shard-local like any other. Lanes first
// take the time-passage step to the global clock.
func (s *System) fireInstant() {
	now := s.root.now
	s.runLanes(func(ln *lane) {
		if now.After(ln.now) {
			ln.now = now
		}
		s.fireDueIndexed(ln)
		if f := now.Add(1); f.After(ln.frontier) {
			ln.frontier = f
		}
	})
	s.adaptiveBarrier(now)
}

// driveSharded is the sharded executor: adaptive pass groups, each closed
// by a barrier, until no deadline remains at or before bound. It reports
// whether no deadline remains at all. Quiescence is judged on raw
// deadlines: coalescable components re-arm when consumed, so a lane with
// any pending deadline reports it here just as the sequential scan would
// after its coalescing pass.
func (s *System) driveSharded(bound simtime.Time) (quiet bool) {
	// The idle latches were judged against the previous call's run bound;
	// a larger bound can turn "done until the barrier" back into work.
	for _, ln := range s.lanes {
		ln.idle = false
	}
	for s.err == nil {
		t, ok := s.minLaneDue()
		if !ok {
			return true
		}
		if t.After(bound) {
			return false
		}
		s.runPasses(bound)
		s.adaptiveBarrier(bound)
	}
	return false
}
