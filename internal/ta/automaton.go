package ta

import (
	"psclock/internal/simtime"
)

// Time and Duration alias the simulation time types so that automaton
// signatures stay compact. They are type aliases, not new types: values
// flow freely between packages.
type (
	Time     = simtime.Time
	Duration = simtime.Duration
)

// Automaton is an executable timed (I/O) automaton, the unit the executor
// composes. The executor drives a component as follows:
//
//   - Init is called once at time zero; returned actions are performed at 0.
//   - Deliver presents an input action at the current time; any returned
//     actions are locally controlled actions performed at the same instant
//     (the zero-delay chains of Figure 2, e.g. the send buffer's ESENDMSG
//     whose precondition "c = clock" forbids time passing first).
//   - Due reports the next instant at which the automaton has a locally
//     controlled action that time may not pass over: the ν precondition.
//     The composed system's time-passage steps advance now to the minimum
//     Due over all components (axioms S3–S5 hold by construction: time
//     advances by positive, arbitrarily divisible amounts).
//   - Fire performs every locally controlled action enabled at now. The
//     executor calls it whenever now reaches the component's Due time and
//     also repolls after same-time deliveries.
//
// Implementations must be deterministic given their construction-time seed;
// all nondeterminism of the paper's models (message delays, clock behavior,
// step times) is resolved by injected, seeded policies.
//
// Slice ownership: the executor copies the slice returned by Init, Deliver,
// or Fire into its own scratch buffer before dispatching any action from
// it, so a component may keep one action buffer and return it (truncated
// and refilled) from every call. Callers other than the executor that
// retain returned actions past the next call into the same component must
// copy them.
type Automaton interface {
	// Name identifies the component, e.g. "edge(n0->n1)".
	Name() string
	// Init performs the component's time-zero activity.
	Init() []Action
	// Deliver handles an input action at time now, returning any locally
	// controlled actions performed at the same instant.
	Deliver(now Time, a Action) []Action
	// Due returns the next deadline, or ok=false when the component places
	// no constraint on time passage.
	Due(now Time) (Time, bool)
	// Fire performs the locally controlled actions enabled at now.
	Fire(now Time) []Action
}

// Coalescable is an optional refinement of Automaton for components whose
// Due deadlines are mostly unobservable bookkeeping: recurring TICK(c)
// emissions and MMT step opportunities that, when taken, change no state
// any other component (or the recorded visible trace) can see. The
// executor uses the interface to advance simulated time directly to the
// next observable event instead of enumerating every intermediate
// deadline.
//
// The skip is semantics-preserving by the paper's own model: in §5.2 a
// node knows its clock only through discrete TICK(c) inputs and "specific
// clock values can be missed", so a TICK that leaves every component's
// enabled-action set unchanged is indistinguishable — the only thing a
// tick does is raise mmtclock, and because clocks are monotone (axiom C3)
// the last tick at or before an instant determines that value alone.
// Likewise an MMT step with an empty pending queue and no composite work
// below mmtclock performs only the internal τ, which the hiding operator
// already erases from the visible trace.
//
// Contract:
//
//   - NextInterest returns the earliest instant at which this component
//     could perform an observable action — one that other components or
//     the visible trace react to — given its current state and no further
//     inputs. simtime.Never means no such instant is scheduled. The value
//     must never be later than the true earliest observable action (being
//     early merely wastes a little work; being late would skip real
//     events), and a component whose very next deadline is observable
//     must return that deadline (the executor stops coalescing there).
//   - FastForward(to) advances the component's internal schedule past all
//     deadlines strictly before `to` without performing them, exactly as
//     if each had fired and been unobservable. It must consume any seeded
//     randomness in the same order the skipped firings would have, so a
//     fast-forwarded execution and a dense one remain byte-identical on
//     every later action. The executor only calls it with `to` at or
//     before every component's NextInterest, and never with
//     simtime.Never.
//
// A component whose deadlines are all observable (a channel's next
// delivery, a clock-model node's next composite deadline) does not
// implement the interface: the executor never skips past a
// non-Coalescable deadline, and a system with no Coalescable component
// pays nothing for coalescing.
type Coalescable interface {
	Automaton
	// NextInterest returns the earliest instant an observable action could
	// occur, or simtime.Never.
	NextInterest() Time
	// FastForward advances internal bookkeeping past every unobservable
	// deadline strictly before to.
	FastForward(to Time)
}
