package linearize

// Shrink reduces a non-linearizable history to a locally minimal violating
// sub-history: removing any single remaining operation makes it
// linearizable (or structurally invalid). Minimal counterexamples turn a
// "no valid linearization order exists" verdict into something a human can
// read — typically the two or three operations of a new/old inversion.
//
// The history is checked as CheckObject checks it: against m, or as a
// register when m is nil. Shrink returns the input unchanged if the history
// is linearizable or invalid to begin with.
func Shrink(ops []Op, m Model, opt Options) []Op {
	violates := func(h []Op) bool {
		if validateHistory(h, opt.Initial) != nil {
			return false // structurally invalid ≠ a violation witness
		}
		return !CheckObject(h, m, opt).OK
	}
	return shrinkWith(ops, violates)
}

// ShrinkSeq is Shrink against the sequential-consistency checker: it
// reduces a non-sequentially-consistent history to a locally minimal
// violating sub-history. A counterexample here is stronger than a
// linearizability one — the history admits no total order at all, even
// ignoring real time — so the witness is usually a program-order cycle.
func ShrinkSeq(ops []Op, initial string) []Op {
	violates := func(h []Op) bool {
		return !CheckSequentiallyConsistent(h, initial).OK
	}
	return shrinkWith(ops, violates)
}

// shrinkWith greedily removes elements while the predicate still holds,
// repeating until no single removal preserves it.
func shrinkWith[T any](ops []T, violates func([]T) bool) []T {
	if !violates(ops) {
		return ops
	}
	cur := make([]T, len(ops))
	copy(cur, ops)
	for {
		removed := false
		for i := 0; i < len(cur); i++ {
			cand := make([]T, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if violates(cand) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			return cur
		}
	}
}
