package exec

import (
	"fmt"
	"runtime"
	"sync"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements sharded conservative-parallel execution, built on
// the paper's own timing assumption that every message spends at least d1
// real time in its channel (§2.3). Partition the components into shards
// so that all same-instant causality is shard-local — each node together
// with its clock/tick source and clients, every channel pinned to its
// receiver's shard — and d1 becomes the lookahead L of every cross-shard
// effect: an event fired at time u in one shard cannot affect another
// shard before u + L.
//
// Execution proceeds in conservative rounds. T is the earliest pending
// deadline over all lanes; no lane can receive an effect from another
// before T + L, so every lane independently fires its deadlines strictly
// before T + L (and at or before the run bound), concurrently, buffering
// cross-shard deliveries into its mailbox and its recorded events into its
// own buffer. Lanes share nothing during a round: each touches only its
// own components, its own scheduler and read-only wiring, so the join is
// the only synchronization. A single-threaded barrier then delivers the
// mail and merges the lanes' events in canonical (time, fire round, firing
// component index) order, which reconstructs the sequential indexed
// executor's dispatch order exactly — seeded sharded runs are
// byte-identical to sequential runs on every recorded event for systems
// with no coalescing divergence, and on every observable event in general.
//
// Two dynamic checks guard the conservative assumption at every barrier
// delivery: a cross-shard subscriber must not react at the same instant
// (its Deliver must return no actions — true of channels, which only
// schedule a future arrival), and the deadline it acquires must not fall
// inside the destination lane's executed frontier (the round's end). A
// declared lookahead larger than the true minimum effect delay surfaces
// there, failing the run loudly (exec: lookahead violation) rather than
// reordering events silently; events already merged stay correctly
// ordered even then, because every lane fires its own deadlines in
// ascending time.
//
// Sharding falls back to fully sequential execution — the configuration is
// simply not activated — when it cannot be proven safe: a lookahead ≤ 0, a
// component the assignment does not place, or a subscription whose
// destination is not a registered component.
// Sharded() reports whether the partition took effect.

// shardConfig is the requested partition: validated by init, read by each round.
type shardConfig struct {
	n         int
	assign    func(name string) int
	lookahead simtime.Duration
}

// laneEvent is one recorded action buffered during a sharded round, with
// the canonical merge key (at, round, firing): lane-local fire rounds and
// firing component indices reproduce the global sequential sweep's because
// same-instant causality never crosses lanes.
type laneEvent struct {
	a      ta.Action
	src    string
	at     simtime.Time
	round  int32
	firing int32
	hidden bool // the Hide verdict from the lane's header memo
}

// mailEntry is a cross-shard delivery awaiting the barrier.
type mailEntry struct {
	sub int32
	a   ta.Action
	at  simtime.Time
	src string
}

// SetShards configures conservative-parallel sharded execution over n
// shards. lookahead must lower-bound the delay of every cross-shard
// effect: an action dispatched in one shard at time u may not make any
// component of another shard due before u + lookahead. The assignment is
// consulted once, when the system first runs; it must place every
// registered component, keep each component and everything it can react
// with at the same instant in one shard, and pin each channel to its
// receiver's shard. Registration must be complete by then: Add and Replace
// fail once sharded execution has started.
//
// Sharding silently falls back to sequential execution when the
// configuration cannot be proven safe (lookahead ≤ 0, an unplaced
// component, an unregistered subscriber, or n ≤ 1); Sharded reports whether it took effect. Either way, seeded runs
// produce identical observable traces.
func (s *System) SetShards(n int, assign func(name string) int, lookahead simtime.Duration) {
	if s.inited {
		s.fail(fmt.Errorf("exec: SetShards after the system started"))
		return
	}
	if n <= 1 || assign == nil {
		s.shardCfg = nil
		return
	}
	s.shardCfg = &shardConfig{n: n, assign: assign, lookahead: lookahead}
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
	if cfg.lookahead <= 0 {
		s.shardReason = "zero lookahead"
		return
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
		if sh < 0 || sh >= cfg.n {
			s.shardReason = fmt.Sprintf("component %s has no shard assignment", c.Name())
			return
		}
		shard[i] = int32(sh)
	}
	s.compShard = shard
	s.lanes = make([]*lane, cfg.n)
	for k := range s.lanes {
		ln := &lane{shard: int32(k), now: s.root.now}
		ln.err = &ln.errSlot
		ln.sched.grow(len(s.comps))
		s.lanes[k] = ln
	}
	s.shardOn = true
}

// runLanes applies fn to every lane, concurrently when the machine has
// cores to spare: worker w takes lanes w, w+workers, w+2·workers, and so
// on. Lane work only touches lane-owned state and read-only wiring, so the
// only synchronization needed is the join.
func (s *System) runLanes(fn func(*lane)) {
	workers := min(runtime.GOMAXPROCS(0), len(s.lanes))
	stripe := func(w int) {
		for i := w; i < len(s.lanes); i += workers {
			fn(s.lanes[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			stripe(w)
		}()
	}
	stripe(0)
	wg.Wait()
}

// laneSweep advances one lane through the round: coalesce up to min(w,
// until), then fire every deadline strictly before w and at or before
// until, exactly as the sequential drive loop does within a window. It
// raises the lane's executed frontier to min(w, until+1): every local
// deadline strictly before the frontier has fired, so a later mail
// delivery arming a deadline behind it is a broken lookahead promise.
func (s *System) laneSweep(ln *lane, w, until simtime.Time) {
	for *ln.err == nil {
		s.coalesce(ln, min(w, until))
		next, ok := s.nextDue(ln)
		if !ok || next.After(until) || !next.Before(w) {
			break
		}
		if next.After(ln.now) {
			ln.now = next
		}
		s.fireDue(ln)
	}
	ln.frontier = max(ln.frontier, min(w, until.Add(1)))
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
		if le.hidden {
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
// left for a later round (including deadlines past a mid-round run bound,
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

// barrier completes a round: deliver the cross-shard mail (against each
// destination lane's executed frontier), surface lane errors, merge the
// settled event prefix, and advance the sinks' low-watermark. It returns
// the settle bound, the globally earliest pending deadline after delivery
// (ok false when none remains): every future event — a local fire or a
// consequence of future mail, which lands at least one lookahead after a
// deadline no earlier than it — happens at or after it, and it is monotone
// across barriers because fires and the deadlines they arm never precede
// the minimum that admitted them. The sink watermark is the settle bound
// capped at the run bound, matching the sequential executor's end-of-run
// flush.
func (s *System) barrier(until simtime.Time) (next simtime.Time, ok bool) {
	s.deliverMail()
	s.collectLaneErrs()
	next, ok = s.minLaneDue()
	s.mergeEvents(next)
	if s.err == nil {
		s.flushSinks(min(next, until))
	}
	return next, ok
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
		s.fireDue(ln)
		if f := now.Add(1); f.After(ln.frontier) {
			ln.frontier = f
		}
	})
	s.barrier(now)
}

// driveSharded is the sharded executor: conservative rounds, each closed
// by a barrier, until no deadline remains at or before bound. Each round
// runs every lane up to the earliest pending deadline plus the lookahead.
// It reports whether no deadline remains at all. Quiescence is judged on
// raw deadlines: coalescable components re-arm when consumed, so a lane
// with any pending deadline reports it here just as the sequential scan
// would after its coalescing pass.
func (s *System) driveSharded(bound simtime.Time) (quiet bool) {
	t, ok := s.minLaneDue()
	for s.err == nil && ok && !t.After(bound) {
		w := t.Add(s.shardCfg.lookahead)
		s.runLanes(func(ln *lane) { s.laneSweep(ln, w, bound) })
		t, ok = s.barrier(bound)
	}
	return s.err == nil && !ok
}
