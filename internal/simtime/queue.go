package simtime

// Entry is one pending deadline: an instant plus its owner's opaque key (a
// timer key, an in-flight message), ordered by (At, push order).
type Entry struct {
	// At is the deadline the entry was pushed for.
	At Time
	// Key is the owner's opaque value, handed back when At is reached.
	Key any

	seq int
}

// Queue is the (deadline, push order)-ordered store of pending deadlines:
// the timer queue of core.Context.SetTimer, which the simulator's engine
// (internal/core) and the wall-clock runtime (internal/live) both drain, so
// an algorithm's timers fire in the same (at, seq) order in both worlds,
// and the in-flight messages of a channel.Edge.
//
// The heap is hand-rolled rather than container/heap because SetTimer and
// timer firing are the per-callback hot path of every node: the
// heap.Interface indirection boxes each entry into an interface value on
// both Push and Pop, which showed up as two heap allocations per timer in
// the executor-throughput profile. The zero Queue is ready to use.
type Queue struct {
	h   []Entry
	seq int
}

func entryLess(a, b Entry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Push adds key at deadline `at`. Entries with equal deadlines pop in push
// order.
func (q *Queue) Push(at Time, key any) {
	q.h = append(q.h, Entry{At: at, Key: key, seq: q.seq})
	q.seq++
	s := q.h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// Len returns the number of pending entries.
func (q *Queue) Len() int { return len(q.h) }

// Next returns the earliest pending deadline without removing it.
func (q *Queue) Next() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest entry. It panics on an empty queue;
// callers gate on Len or Next.
func (q *Queue) Pop() Entry {
	s := q.h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = Entry{} // drop the key reference
	s = s[:n]
	q.h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(s[r], s[l]) {
			m = r
		}
		if !entryLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
