package exec

import (
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements quiescence-aware tick coalescing: the executor
// advances simulated time directly to the next observable event, skipping
// the TICK deliveries and idle MMT step opportunities in between.
//
// The MMT model's clock subsystem emits a TICK every period and every node
// claims a step opportunity every ≤ ℓ, so an idle register system still
// generates thousands of heap events per simulated millisecond — PR 1's
// bench showed ~15k dispatched events per completed register operation,
// nearly all of them ticks and empty steps. The paper licenses skipping
// them: §5.2's clock is visible only through discrete TICK events and
// "specific clock values can be missed", so an execution in which the
// executor synthesizes only the ticks some component could react to is
// admissible and — because clocks are monotone (axiom C3) and mmtclock is
// a running maximum — produces byte-identical observable behavior. See
// ta.Coalescable for the per-component contract.
//
// Mechanics, per time-passage step: pop main-heap entries in due order,
// narrowing a skip horizon as they surface. The horizon starts at the
// caller's run bound (so state at Run(until)'s return matches the dense
// path exactly, even if the caller injects actions afterward) and is
// lowered by
//
//   - an entry owned by a non-coalescable component (a real event — it
//     fires), or one whose NextInterest equals its deadline: the sweep
//     stops there, and
//   - the NextInterest of each consumed component: a tick source that
//     must deliver the TICK crossing a demanded clock threshold caps the
//     horizon at that tick, so the synthesized TICK always fires at its
//     exact dense-schedule time.
//
// Consumed entries all lie strictly before the final horizon (pop order
// is ascending by due), so each consumed component FastForwards to the
// horizon and is re-polled: a tick source keeps its newest tick at or
// before the horizon — the sync TICK that refreshes mmtclock before the
// next observable event — and an idle MMT node jumps its step schedule
// in one arithmetic move (fixed-gap policies) or by replaying its seeded
// gap draws (random policies).
//
// Components whose deadlines are all observable (channel edges, clock-model
// nodes) do not implement ta.Coalescable: their entries stop the sweep,
// and a system with none that does (the timed and clock models) skips the
// pass outright. The consumed-entry scratch list is pooled on the lane,
// and FastForward itself is arithmetic for fixed-gap step policies, so a
// coalescing round allocates nothing.

// rebuildCoal recomputes the Coalescable views after Add, Replace or init.
func (s *System) rebuildCoal() {
	s.coalOf, s.ncoal = s.coalOf[:0], 0
	for _, c := range s.comps {
		cc, _ := c.(ta.Coalescable)
		if cc != nil {
			s.ncoal++
		}
		s.coalOf = append(s.coalOf, cc)
	}
}

// coalesce fast-forwards the lane's coalescable components past their
// unobservable deadlines up to the next observable event, bounded by bound
// (the current Run/RunQuiet window or the sharded round window). On the
// dense oracle path it does nothing.
//
// Under sharded execution the bound is additionally capped at the round
// window W: mail from other shards lands at the barrier with deadlines at
// or after W, so no deadline the sweep skips inside the window can be
// invalidated by a delivery the lane has not seen yet. Fast-forwarding in
// window-sized increments reaches the same state as one direct jump:
// FastForward targets are monotone and each call consumes exactly the
// seeded draws of the deadlines it skips.
func (s *System) coalesce(ln *lane, bound simtime.Time) {
	if s.dense || *ln.err != nil || s.ncoal == 0 {
		return
	}
	horizon := bound
	sc := &ln.sched
	ff := ln.ffScratch[:0]
	for len(sc.heap) > 0 {
		top := sc.heap[0]
		if sc.stale(top) {
			sc.pop()
			continue
		}
		if !top.due.Before(horizon) {
			break
		}
		cc := s.coalOf[top.idx]
		if cc == nil {
			// A non-coalescable deadline is an observable event; it bounds
			// the skip. Entries consumed so far are due before it (pop
			// order), so fast-forwarding them to the lowered horizon stays
			// correct.
			horizon = top.due
			break
		}
		t := cc.NextInterest()
		if !t.After(top.due) {
			// The component's next deadline is itself observable.
			horizon = top.due
			break
		}
		if t.Before(horizon) {
			// Skippable now, but observable later (a tick source holding a
			// demanded threshold crossing): the horizon may not pass it.
			horizon = t
		}
		sc.pop()
		sc.gen[top.idx]++ // consumed; poll re-pushes after the fast-forward
		sc.curOk[top.idx] = false
		ff = append(ff, top.idx)
	}
	if horizon == simtime.Never {
		// Every remaining deadline was consumed and nothing observable is
		// ever scheduled: there is no event to fast-forward to. Restore the
		// consumed entries (state is untouched, so poll re-pushes each
		// component at its unchanged deadline) and let the caller's sweep
		// proceed densely.
		for _, idx := range ff {
			s.poll(ln, int(idx))
		}
		ln.ffScratch = ff[:0]
		return
	}
	for _, idx := range ff {
		s.coalOf[idx].FastForward(horizon)
		s.poll(ln, int(idx))
	}
	ln.ffScratch = ff[:0]
}
