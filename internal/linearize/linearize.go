// Package linearize decides linearizability (§6 of the paper) with one
// engine, over either a read/write register or any sequential object given
// as a Model (§6's closing remark: the register technique carries over to
// other shared-memory objects). It covers the paper's two variants:
//
//   - ε-superlinearizability (§6.2): every operation's linearization point
//     must additionally lie at least 2ε after its invocation;
//   - the P_ε relaxation (Definition 2.11): the history may first be
//     perturbed by moving every event up to ε in time, which for interval
//     placement is equivalent to widening every operation's window by ε on
//     both sides.
//
// For a register the checker assumes unique written values (the §3
// uniqueness assumption, guaranteed by the workloads); a Model's states
// need no such assumption. Linearizability is decided by a Wing-Gong style
// search: choose the next operation to linearize among those whose window
// opens before every remaining window closes, assign it the earliest
// feasible point, and backtrack on result mismatches. Greedy earliest-point
// assignment is safe (an exchange argument: delaying a point never enables
// an otherwise infeasible order).
//
// The search engine is the *online* frontier checker of online.go, which
// consumes operations as they complete and settles verdict fragments as a
// low-watermark passes each operation's window — O(window) state for
// streaming monitors. The batch functions below replay a history into it,
// so both paths share one engine and return identical Results.
package linearize

import (
	"fmt"
	"strconv"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Kind distinguishes reads, writes and calls on a Model.
type Kind int

// Operation kinds.
const (
	Read Kind = iota + 1
	Write
	// Call is one operation on a Model: Value holds the operation text
	// (e.g. "add:3", "get") and Result the observed return.
	Call
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Call:
		return "call"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Op is one operation: invoked at Inv, responded at Res. Value is the
// value written (writes) or returned (reads), compared as an opaque string,
// or a Call's operation text. Result is a Call's observed return; only
// Call ops read it. A pending operation (no response observed) has
// Res == simtime.Never.
type Op struct {
	Node   ta.NodeID
	Kind   Kind
	Value  string
	Result string
	Inv    simtime.Time
	Res    simtime.Time
}

// Pending reports whether the operation never received its response.
func (o Op) Pending() bool { return o.Res == simtime.Never }

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.Kind == Call {
		return fmt.Sprintf("%v %s=%q [%v, %v]", o.Node, o.Value, o.Result, o.Inv, o.Res)
	}
	return fmt.Sprintf("%v %v(%s) [%v, %v]", o.Node, o.Kind, o.Value, o.Inv, o.Res)
}

// Model is a sequential object specification: the paper's §6 closing
// remark generalizes the register result to other shared-memory objects,
// and this interface is what a history of Call ops is checked against.
// States are canonical strings so the search can memoize them.
type Model interface {
	// Name identifies the object type.
	Name() string
	// Init returns the canonical encoding of the initial state.
	Init() string
	// Apply applies one operation to a state, returning the successor
	// state and the operation's result ("" for pure updates).
	Apply(state, op string) (newState, result string)
}

// Options tunes the placement constraints.
type Options struct {
	// Initial is the register's initial value (read by reads that precede
	// every write).
	Initial string
	// MinAfterInv forces every linearization point to be at least this far
	// after the operation's invocation: 2ε for the superlinearizability
	// property Q of §6.2, 0 for plain linearizability.
	MinAfterInv simtime.Duration
	// Widen relaxes every operation's window by this much on both sides:
	// ε when checking membership in P_ε (Definition 2.11), 0 otherwise.
	Widen simtime.Duration
	// ShiftFuture additionally allows every window's close to move this
	// much later: δ when checking membership in P^δ (Definition 2.12),
	// where responses may shift into the future.
	ShiftFuture simtime.Duration
	// MaxStates bounds the search; 0 means the default (4 million).
	MaxStates int
	// AssumeUnique skips the value-uniqueness bookkeeping (duplicate-write
	// and read-of-unwritten detection), whose state grows with the number
	// of distinct values rather than the concurrency window. Set it only
	// for workloads that guarantee uniqueness by construction (§3), e.g.
	// the long-horizon streaming runs.
	AssumeUnique bool
	// ApproxEps enables the ε-approximate mode (after Bonakdarpour et al.,
	// "Approximate Distributed Monitoring under Partial Synchrony", arXiv
	// 2408.05033): orderings whose only distinction lies inside this band —
	// an operation that could precede a settling deadline only because its
	// window opens within ApproxEps of that deadline — are pruned instead
	// of searched. Pruning never fabricates a witness, so OK still means a
	// real linearization order was found; a failure reached after any prune
	// is only ε-uncertain. Result.Verdict() reports the three-valued
	// outcome. Zero (the default) is the exact checker. Larger values prune
	// more: the precision/cost knob.
	ApproxEps simtime.Duration
	// Yield, when non-nil, is called between settled deadlines inside a
	// drain. Live monitors sharing a core with the system under test set
	// it to runtime.Gosched so a verification burst cannot monopolize the
	// scheduler for tens of milliseconds and turn checker lag into
	// measured timer/delay violations; batch checking leaves it nil. The
	// hook has no effect on the verdict.
	Yield func()
}

// Result reports the outcome of a check.
type Result struct {
	// OK reports whether a valid linearization exists.
	OK bool
	// Reason describes the failure when OK is false.
	Reason string
	// States counts search states explored, for diagnostics.
	States int
	// Pruned counts candidate orderings the ε-approximate mode skipped;
	// always zero for the exact checker (Options.ApproxEps == 0). A found
	// witness is real regardless of Pruned, but a failure with Pruned > 0
	// might have been rescued by a pruned ordering — see Verdict.
	Pruned int
}

// Verdict is the three-valued outcome of an ε-approximate check.
type Verdict int

// The three verdicts. The exact checker (ApproxEps == 0) only ever yields
// the first two.
const (
	// Linearizable: a concrete linearization order was found; the history
	// is definitely linearizable (sound even under pruning — pruning only
	// removes candidate orders, never invents one).
	Linearizable Verdict = iota
	// NotLinearizable: the search failed and nothing was pruned, so the
	// exhaustive search failed: definitely not linearizable.
	NotLinearizable
	// EpsUncertain: the search failed, but orderings inside the ε band
	// were pruned along the way; one of them might have succeeded. The
	// history is not linearizable at the monitor's timing precision, but
	// could be under a sub-ε perturbation.
	EpsUncertain
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Linearizable:
		return "linearizable"
	case NotLinearizable:
		return "not-linearizable"
	case EpsUncertain:
		return "eps-uncertain"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Verdict classifies the result three-valued: definitely linearizable,
// definitely not, or ε-uncertain (failed, but only after the approximate
// mode pruned candidate orderings that might have succeeded).
func (r Result) Verdict() Verdict {
	switch {
	case r.OK:
		return Linearizable
	case r.Pruned > 0:
		return EpsUncertain
	default:
		return NotLinearizable
	}
}

// Check decides whether the register history is linearizable under the
// options: CheckObject with no Model.
func Check(ops []Op, opt Options) Result {
	return CheckObject(ops, nil, opt)
}

// CheckObject decides whether the history is linearizable with respect to
// the sequential specification m, starting from m.Init(), under the same
// Options as the register checker (MinAfterInv for superlinearizability,
// Widen for P_ε, ShiftFuture for P^δ); a nil m is the register of
// Options.Initial. It replays the history through the online engine:
// submit every operation in history order, then settle all deadlines at
// once. No uniqueness assumption is made for a Model. A pending Call is
// linearized with an unbounded window and its result unread, which covers
// its other fate too: an op that never took effect is one placed after
// every other.
func CheckObject(ops []Op, m Model, opt Options) Result {
	o := newOnline(opt, m)
	o.window = make([]olIv, 0, len(ops))
	for _, op := range ops {
		o.Add(op)
	}
	return o.Finish()
}

// CheckLinearizable decides plain linearizability (the problem P of §6.1)
// with the given initial value.
func CheckLinearizable(ops []Op, initial string) Result {
	return Check(ops, Options{Initial: initial})
}

// CheckSuperLinearizable decides ε-superlinearizability (the problem Q of
// §6.2): points at least 2ε after invocation.
func CheckSuperLinearizable(ops []Op, initial string, eps simtime.Duration) Result {
	return Check(ops, Options{Initial: initial, MinAfterInv: 2 * eps})
}

// CheckEps decides membership in P_ε (Definition 2.11) for the
// linearizability problem: some ≤ε perturbation of the history is
// linearizable.
func CheckEps(ops []Op, initial string, eps simtime.Duration) Result {
	return Check(ops, Options{Initial: initial, Widen: eps})
}

// validateHistory checks the register's structural preconditions — unique
// written values and no read of a never-written value — without running
// the search; Call ops have none. Shrink uses it to distinguish genuine
// violation witnesses from histories a removal made malformed.
func validateHistory(ops []Op, initial string) error {
	writers := make(map[string]int, len(ops))
	observed := make(map[string]int, len(ops))
	for i, o := range ops {
		if o.Kind == Call {
			continue
		}
		if o.Kind == Write {
			if j, dup := writers[o.Value]; dup {
				return fmt.Errorf("linearize: value %q written twice (ops %d and %d)", o.Value, j, i)
			}
			writers[o.Value] = i
		} else if !o.Pending() {
			if _, seen := observed[o.Value]; !seen {
				observed[o.Value] = i
			}
		}
	}
	badID, badVal := -1, ""
	for v, id := range observed {
		if v == initial {
			continue
		}
		if _, ok := writers[v]; ok {
			continue
		}
		if badID < 0 || id < badID {
			badID, badVal = id, v
		}
	}
	if badID >= 0 {
		return fmt.Errorf("linearize: value %q read but never written", badVal)
	}
	return nil
}
