package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"psclock/internal/simtime"
)

// FaultKind names an injectable fault.
type FaultKind string

const (
	// FaultCrash SIGKILLs the target daemon; the plane is expected to
	// detect the death, restart it at once as a fresh incarnation that
	// copies a live peer's registers, and re-wire its peers — tolerated. A
	// replacement serving again inside the detector timeout is never
	// SUSPECTed, so the heartbeat detector's SUSPECT/RESTORE pair is evidence
	// of a slow recovery, not of a crash.
	FaultCrash FaultKind = "crash"
	// FaultPartition cuts both directions between Target and Peer for the
	// duration. Message loss is outside the paper's model (Definition 2.3
	// delivers within [d1, d2]), so a partition longer than the detector
	// timeout is expected to be flagged: the live peers SUSPECT each other
	// across the cut and RESTORE after the heal.
	FaultPartition FaultKind = "partition"
	// FaultDelay adds Amount of extra latency to the target's outbound
	// inter-node frames. Past d2 it must surface in delay_violations
	// (flagged); within budget it must not (tolerated).
	FaultDelay FaultKind = "delay"
	// FaultClockStep offsets the target's clock by Amount. Past ε the
	// node's measured ε̂ must exceed the configured band (flagged); within
	// ε the predicate C_ε still holds (tolerated).
	FaultClockStep FaultKind = "clockstep"
)

// Outcome is a fault's classification.
type Outcome string

const (
	// OutcomeTolerated: the fleet absorbed the fault with no observable
	// guarantee broken.
	OutcomeTolerated Outcome = "tolerated"
	// OutcomeFlagged: the fault's evidence surfaced in the run's checks or
	// measurements — loudly broken, never silently absorbed.
	OutcomeFlagged Outcome = "flagged"
	// OutcomeUnresolved: the evidence the fault was supposed to produce
	// (either way) never appeared — e.g. a crashed daemon was not
	// replaced. Always a mismatch.
	OutcomeUnresolved Outcome = "unresolved"
)

// Fault is one scripted injection.
type Fault struct {
	Kind   FaultKind
	Start  time.Duration // offset from load start
	Dur    time.Duration // active window (crash: ignored)
	Target int
	Peer   int              // partition's other end (-1 otherwise)
	Amount simtime.Duration // delay extra / clock step size
	// Expect is the scripted expected outcome; empty means "derive from
	// the parameters" via DefaultExpect.
	Expect Outcome
}

// Script is a chaos schedule; the runner injects faults sequentially in
// Start order (windows are kept non-overlapping so each fault's evidence
// window attributes cleanly).
type Script []Fault

// DefaultExpect derives a fault's expected outcome from the run's
// parameters: a crash is tolerated (the plane remediates), a partition
// longer than the detector timeout is flagged (suspicion of a live node —
// the detector's accuracy property cannot hold across message loss), a
// delay spike is flagged iff the extra alone exceeds d2, and a clock step
// is flagged iff it leaves the ±ε band.
func DefaultExpect(f Fault, eps, d2 simtime.Duration) Outcome {
	switch f.Kind {
	case FaultCrash:
		return OutcomeTolerated
	case FaultPartition:
		return OutcomeFlagged
	case FaultDelay:
		if f.Amount > d2 {
			return OutcomeFlagged
		}
		return OutcomeTolerated
	case FaultClockStep:
		if f.Amount.Abs() > eps {
			return OutcomeFlagged
		}
		return OutcomeTolerated
	}
	return OutcomeUnresolved
}

// String renders a fault in the script DSL.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", f.Kind, f.Start)
	if f.Dur > 0 {
		fmt.Fprintf(&b, "+%s", f.Dur)
	}
	fmt.Fprintf(&b, ":%d", f.Target)
	if f.Kind == FaultPartition {
		fmt.Fprintf(&b, "-%d", f.Peer)
	}
	if f.Amount != 0 {
		// Both are nanoseconds; ToWall would refuse a backward clock step.
		fmt.Fprintf(&b, "+%s", time.Duration(f.Amount))
	}
	if f.Expect != "" {
		fmt.Fprintf(&b, "!%s", f.Expect)
	}
	return b.String()
}

// String renders the whole script in the DSL.
func (s Script) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}

// ParseScript parses the chaos DSL: semicolon-separated faults of the
// form
//
//	kind@start[+dur]:target[-peer][+amount][!expected]
//
// e.g. "crash@1500ms:1; partition@3s+1200ms:0-2; delay@5s+1s:1+12ms;
// clockstep@7s+800ms:2+3ms". kind ∈ {crash, partition, delay, clockstep};
// start/dur/amount are Go durations; target/peer are node IDs < n;
// expected ∈ {tolerated, flagged} overrides the derived expectation.
func ParseScript(spec string, n int) (Script, error) {
	var out Script
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part, n)
		if err != nil {
			return nil, fmt.Errorf("chaos %q: %w", part, err)
		}
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

func parseFault(s string, n int) (Fault, error) {
	f := Fault{Peer: -1}

	// Optional trailing !expected.
	if i := strings.IndexByte(s, '!'); i >= 0 {
		switch Outcome(s[i+1:]) {
		case OutcomeTolerated:
			f.Expect = OutcomeTolerated
		case OutcomeFlagged:
			f.Expect = OutcomeFlagged
		default:
			return f, fmt.Errorf("unknown expected outcome %q", s[i+1:])
		}
		s = s[:i]
	}

	at := strings.IndexByte(s, '@')
	if at < 0 {
		return f, fmt.Errorf("missing @start")
	}
	f.Kind = FaultKind(s[:at])
	switch f.Kind {
	case FaultCrash, FaultPartition, FaultDelay, FaultClockStep:
	default:
		return f, fmt.Errorf("unknown kind %q", s[:at])
	}
	s = s[at+1:]

	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return f, fmt.Errorf("missing :target")
	}
	timing, targets := s[:colon], s[colon+1:]

	if plus := strings.IndexByte(timing, '+'); plus >= 0 {
		d, err := time.ParseDuration(timing[plus+1:])
		if err != nil {
			return f, fmt.Errorf("bad duration: %w", err)
		}
		f.Dur = d
		timing = timing[:plus]
	}
	start, err := time.ParseDuration(timing)
	if err != nil {
		return f, fmt.Errorf("bad start: %w", err)
	}
	f.Start = start

	// target[-peer][+amount]; a clock step's amount may be negative.
	if plus := strings.IndexByte(targets, '+'); plus >= 0 {
		w, err := time.ParseDuration(targets[plus+1:])
		if err != nil {
			return f, fmt.Errorf("bad amount: %w", err)
		}
		amt, err := simtime.FromWall(w.Abs())
		if err != nil {
			return f, fmt.Errorf("bad amount: %w", err)
		}
		if w < 0 {
			amt = -amt
		}
		f.Amount = amt
		targets = targets[:plus]
	}
	if dash := strings.IndexByte(targets, '-'); dash >= 0 {
		p, err := strconv.Atoi(targets[dash+1:])
		if err != nil {
			return f, fmt.Errorf("bad peer: %w", err)
		}
		f.Peer = p
		targets = targets[:dash]
	}
	t, err := strconv.Atoi(targets)
	if err != nil {
		return f, fmt.Errorf("bad target: %w", err)
	}
	f.Target = t

	if f.Target < 0 || f.Target >= n {
		return f, fmt.Errorf("target %d out of range [0,%d)", f.Target, n)
	}
	switch f.Kind {
	case FaultPartition:
		if f.Peer < 0 || f.Peer >= n || f.Peer == f.Target {
			return f, fmt.Errorf("partition needs a distinct peer in [0,%d)", n)
		}
		if f.Dur <= 0 {
			return f, fmt.Errorf("partition needs a +dur window")
		}
	case FaultDelay:
		if f.Amount <= 0 || f.Dur <= 0 {
			return f, fmt.Errorf("delay needs a positive +amount and a +dur")
		}
	case FaultClockStep:
		if f.Amount == 0 || f.Dur <= 0 {
			return f, fmt.Errorf("clockstep needs +amount and +dur")
		}
	}
	return f, nil
}

// DefaultScript is the seeded reference schedule for an n-node fleet: all
// four fault kinds, each variant paired where meaningful with its
// in-budget twin, spaced so every fault's evidence window (detector
// timeout, beat cadence) settles before the next begins.
// eps and d2 size the past-budget variants (1.5× the bound) and the
// in-budget ones (≤ half the bound).
func DefaultScript(n int, eps, d2 simtime.Duration) Script {
	t2 := func(d simtime.Duration) simtime.Duration { return d + d/2 }
	s := Script{
		{Kind: FaultCrash, Start: 1200 * time.Millisecond, Target: 1 % n, Peer: -1},
		{Kind: FaultPartition, Start: 3500 * time.Millisecond, Dur: 1200 * time.Millisecond, Target: 0, Peer: 2 % n},
		{Kind: FaultDelay, Start: 5500 * time.Millisecond, Dur: 800 * time.Millisecond, Target: 1 % n, Peer: -1, Amount: t2(d2)},
		{Kind: FaultDelay, Start: 6800 * time.Millisecond, Dur: 600 * time.Millisecond, Target: 2 % n, Peer: -1, Amount: d2 / 2},
		{Kind: FaultClockStep, Start: 7900 * time.Millisecond, Dur: 600 * time.Millisecond, Target: 2 % n, Peer: -1, Amount: t2(eps)},
		{Kind: FaultClockStep, Start: 9000 * time.Millisecond, Dur: 500 * time.Millisecond, Target: 0, Peer: -1, Amount: eps / 2},
	}
	return s
}

// GenScript derives a seeded random schedule of k faults over the run
// window, spaced ≥ gap apart with non-overlapping active windows.
func GenScript(seed int64, n, k int, runDur time.Duration, eps, d2 simtime.Duration) Script {
	rng := rand.New(rand.NewSource(seed))
	kinds := []FaultKind{FaultCrash, FaultPartition, FaultDelay, FaultClockStep}
	const gap = 1500 * time.Millisecond
	start := 1 * time.Second
	var out Script
	for i := 0; i < k; i++ {
		if start+gap > runDur {
			break
		}
		kind := kinds[i%len(kinds)] // every kind appears before any repeats
		f := Fault{Kind: kind, Start: start, Target: rng.Intn(n), Peer: -1}
		switch kind {
		case FaultCrash:
			// no window
		case FaultPartition:
			f.Peer = (f.Target + 1 + rng.Intn(n-1)) % n
			f.Dur = 1200 * time.Millisecond
		case FaultDelay:
			f.Dur = 800 * time.Millisecond
			if rng.Intn(2) == 0 {
				f.Amount = d2 + d2/2
			} else {
				f.Amount = d2 / 2
			}
		case FaultClockStep:
			f.Dur = 600 * time.Millisecond
			if rng.Intn(2) == 0 {
				f.Amount = eps + eps/2
			} else {
				f.Amount = eps / 2
			}
		}
		out = append(out, f)
		start += gap
	}
	return out
}
