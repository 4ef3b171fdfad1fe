package exec

import (
	"fmt"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file preserves the original O(components)-per-step scheduler,
// verbatim, as a differential oracle. Setting System.linear before the
// first run routes nextDueAny/fireDue through these implementations and
// dispatch through the full scan of dispatchLinear; seeded executions must
// produce byte-identical traces on either path (see the differential test
// and the golden-trace test in internal/experiments). The linear path
// always runs on the root lane: it predates both coalescing and sharding,
// and both fast paths disable themselves under it. Event recording flows through
// the same dispatch → record → emit chain as the indexed path, so sinks
// (sink.go) observe the identical stream here, and the shared Run/RunQuiet
// driver advances its low-watermark on this path too.

// dispatchLinear is dispatch's oracle form: it evaluates the Hide chain
// and every subscription's predicate for each action, where the indexed
// path reads both verdicts from its header memo.
func (s *System) dispatchLinear(ln *lane, a ta.Action, src string) {
	s.record(ln, a, s.hidden != nil && s.hidden(a), src)
	for i := range s.subs {
		if s.subs[i].match(a) {
			s.deliverTo(ln, int32(i), a, src)
		}
	}
}

// fireDueLinear fires every component whose deadline has been reached,
// repeating full index-ordered sweeps until the instant is quiescent.
func (s *System) fireDueLinear() {
	ln := &s.root
	for s.err == nil {
		progressed := false
		for _, c := range s.comps {
			due, ok := c.Due(ln.now)
			if !ok || due.After(ln.now) {
				continue
			}
			acts := c.Fire(ln.now)
			if len(acts) == 0 {
				// The component claimed a reached deadline but performed
				// nothing: its Due must move forward or the system is stuck.
				if due2, ok2 := c.Due(ln.now); ok2 && !due2.After(ln.now) {
					s.fail(fmt.Errorf("%w: %s claims due %v at %v but fires nothing", ErrStuck, c.Name(), due2, ln.now))
					return
				}
				continue
			}
			progressed = true
			buf := ln.borrow(acts)
			for _, a := range buf {
				ln.chainDepth = 0
				s.dispatch(ln, a, c.Name())
			}
			ln.release(buf)
		}
		if !progressed {
			return
		}
	}
}

// nextDueLinear scans every component for the earliest pending deadline.
func (s *System) nextDueLinear() (simtime.Time, bool) {
	next := simtime.Never
	found := false
	for _, c := range s.comps {
		if due, ok := c.Due(s.root.now); ok && due.Before(next) {
			next = due
			found = true
		}
	}
	return next, found
}
