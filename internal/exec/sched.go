package exec

import (
	"fmt"

	"psclock/internal/simtime"
)

// sched is the indexed deadline scheduler: a binary min-heap of
// (due, componentIndex) entries with generation-counter lazy invalidation,
// plus a small index-ordered heap of the components due at the current
// instant.
//
// Invariant: a component lives in exactly one place. If curOk[i] and
// !inNow[i], the main heap holds one entry for i whose gen field equals
// gen[i] and whose due equals curDue[i] (plus possibly stale entries with
// older gens, discarded on pop). If inNow[i], the component has been moved
// to the dueNow heap for the current instant and the main heap holds no
// live entry for it. If !curOk[i], the component has no pending deadline.
//
// Entries are never removed from the middle of the heap; superseding an
// entry bumps gen[i] and the stale copy is skipped when it surfaces. This
// keeps every update O(log n) with no positional bookkeeping.
type sched struct {
	heap []schedEntry

	// Per-component state, indexed by registration order.
	gen    []uint32
	curDue []simtime.Time
	curOk  []bool
	inNow  []bool

	// dueNow holds the indices of components scheduled to fire at the
	// current instant, ordered by registration index: the order in which
	// each round of fireDue's sweep visits them.
	dueNow []int32
	carry  []int32
}

type schedEntry struct {
	due simtime.Time
	idx int32
	gen uint32
}

// entryLess orders the heap by deadline alone. The order of equal
// deadlines is never observed: collectNow moves every entry due at now into
// the index-ordered dueNow heap, and coalesce treats equal deadlines alike
// (an entry it consumes at the deadline that becomes its horizon is
// fast-forwarded to its own deadline, which skips nothing).
func entryLess(a, b schedEntry) bool {
	return a.due < b.due
}

// grow sizes the per-component arrays for n components.
func (sc *sched) grow(n int) {
	for len(sc.gen) < n {
		sc.gen = append(sc.gen, 0)
		sc.curDue = append(sc.curDue, 0)
		sc.curOk = append(sc.curOk, false)
		sc.inNow = append(sc.inNow, false)
	}
}

func (sc *sched) push(e schedEntry) {
	sc.heap = append(sc.heap, e)
	i := len(sc.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(sc.heap[i], sc.heap[p]) {
			break
		}
		sc.heap[i], sc.heap[p] = sc.heap[p], sc.heap[i]
		i = p
	}
}

func (sc *sched) pop() schedEntry {
	top := sc.heap[0]
	n := len(sc.heap) - 1
	sc.heap[0] = sc.heap[n]
	sc.heap = sc.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(sc.heap[r], sc.heap[l]) {
			m = r
		}
		if !entryLess(sc.heap[m], sc.heap[i]) {
			break
		}
		sc.heap[i], sc.heap[m] = sc.heap[m], sc.heap[i]
		i = m
	}
	return top
}

// stale reports whether e no longer represents its component's deadline.
func (sc *sched) stale(e schedEntry) bool {
	return e.gen != sc.gen[e.idx] || !sc.curOk[e.idx]
}

// peek returns the earliest live deadline, discarding stale entries that
// have surfaced at the top.
func (sc *sched) peek() (simtime.Time, bool) {
	for len(sc.heap) > 0 {
		top := sc.heap[0]
		if sc.stale(top) {
			sc.pop()
			continue
		}
		return top.due, true
	}
	return simtime.Never, false
}

// collectNow moves every component with a live entry due at or before now
// into the dueNow heap, consuming the main-heap entries.
func (sc *sched) collectNow(now simtime.Time) {
	for len(sc.heap) > 0 {
		top := sc.heap[0]
		if sc.stale(top) {
			sc.pop()
			continue
		}
		if top.due.After(now) {
			return
		}
		sc.pop()
		sc.gen[top.idx]++ // consumed: the component now lives in dueNow
		if !sc.inNow[top.idx] {
			sc.pushNow(top.idx)
			sc.inNow[top.idx] = true
		}
	}
}

func (sc *sched) pushNow(idx int32) {
	sc.dueNow = append(sc.dueNow, idx)
	i := len(sc.dueNow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if sc.dueNow[i] >= sc.dueNow[p] {
			break
		}
		sc.dueNow[i], sc.dueNow[p] = sc.dueNow[p], sc.dueNow[i]
		i = p
	}
}

func (sc *sched) popNow() int32 {
	top := sc.dueNow[0]
	n := len(sc.dueNow) - 1
	sc.dueNow[0] = sc.dueNow[n]
	sc.dueNow = sc.dueNow[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && sc.dueNow[r] < sc.dueNow[l] {
			m = r
		}
		if sc.dueNow[m] >= sc.dueNow[i] {
			break
		}
		sc.dueNow[i], sc.dueNow[m] = sc.dueNow[m], sc.dueNow[i]
		i = m
	}
	return top
}

// poll refreshes the lane scheduler's view of component i after anything
// that may have changed its state (Init, Deliver, Fire, Replace, late Add).
// The common case — deadline unchanged — is two loads and a compare.
func (s *System) poll(ln *lane, i int) {
	sc := &ln.sched
	due, ok := s.comps[i].Due(ln.now)
	if !ok {
		if sc.curOk[i] {
			sc.gen[i]++ // invalidates any live main-heap entry
			sc.curOk[i] = false
		}
		return
	}
	if sc.inNow[i] {
		// Already scheduled for this instant; the sweep re-checks Due at
		// visit time, so only the bookkeeping needs refreshing.
		sc.curOk[i] = true
		sc.curDue[i] = due
		return
	}
	if sc.curOk[i] && sc.curDue[i] == due {
		if !due.After(ln.now) {
			// Deadline reached but the component is still held in the
			// main heap (its entry predates now reaching due). Promote it
			// so a mid-instant sweep sees it immediately.
			sc.gen[i]++
			sc.pushNow(int32(i))
			sc.inNow[i] = true
		}
		return
	}
	sc.gen[i]++
	sc.curOk[i] = true
	sc.curDue[i] = due
	if !due.After(ln.now) {
		sc.pushNow(int32(i))
		sc.inNow[i] = true
	} else {
		sc.push(schedEntry{due: due, idx: int32(i), gen: sc.gen[i]})
	}
}

// fireDue fires every component of the lane whose deadline has been
// reached, repeating until the instant is quiescent. Each round pops due
// components in registration-index order. A component whose deadline
// appears mid-round at an index the cursor has already reached — one due
// again at its own firing instant included — is carried to the next round.
// Rounds repeat while any component fired actions. TestIndexedTraceGolden
// pins this order.
//
// The lane's round counter and firing index stamp each buffered event
// under sharded execution (shard.go): because same-instant causality is
// confined to a lane, a lane's round/carry decisions reproduce the global
// sequential sweep's, so (time, round, firing index) is a merge key that
// reconstructs the sequential dispatch order across lanes.
func (s *System) fireDue(ln *lane) {
	sc := &ln.sched
	ln.round = 0
	for *ln.err == nil {
		sc.collectNow(ln.now)
		if len(sc.dueNow) == 0 {
			return
		}
		progressed := false
		cursor := int32(-1)
		carry := sc.carry[:0]
		for len(sc.dueNow) > 0 {
			idx := sc.popNow()
			if idx <= cursor {
				carry = append(carry, idx) // stays inNow; next round's work
				continue
			}
			cursor = idx
			sc.inNow[idx] = false
			c := s.comps[idx]
			due, ok := c.Due(ln.now)
			if !ok {
				if sc.curOk[idx] {
					sc.gen[idx]++
					sc.curOk[idx] = false
				}
				continue
			}
			if due.After(ln.now) {
				sc.gen[idx]++
				sc.curOk[idx] = true
				sc.curDue[idx] = due
				sc.push(schedEntry{due: due, idx: idx, gen: sc.gen[idx]})
				continue
			}
			acts := c.Fire(ln.now)
			if len(acts) == 0 {
				// The component claimed a reached deadline but performed
				// nothing: its Due must move forward or the system is stuck.
				if due2, ok2 := c.Due(ln.now); ok2 && !due2.After(ln.now) {
					ln.fail(fmt.Errorf("%w: %s claims due %v at %v but fires nothing", ErrStuck, c.Name(), due2, ln.now))
					return
				}
				s.poll(ln, int(idx))
				continue
			}
			progressed = true
			ln.firing = idx
			buf := ln.borrow(acts)
			for _, a := range buf {
				ln.chainDepth = 0
				s.dispatch(ln, a, c.Name())
			}
			ln.release(buf)
			s.poll(ln, int(idx))
		}
		sc.carry = carry
		for _, idx := range carry {
			// Re-enter dueNow for the next round; inNow is still set.
			sc.pushNow(idx)
		}
		if !progressed {
			return
		}
		ln.round++
	}
}
