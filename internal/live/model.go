package live

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"psclock/internal/detector"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

// Model is the parameter vector a live deployment is a closed-form
// function of: the paper's (ε, d1, d2, δ, c) plus the two budgets the
// wall-clock world adds, the timer-service lateness ℓ (the MMT boundmap's
// ℓ of §5) and the scheduling slack the online check grants on top of ε.
// Everything a deployment derives from the vector — the widened delay
// bound, the checker policy, the seq tier's staleness bound, the detector
// timeout, the envelope statement — is a method here and nowhere else, so
// a caller states which model it runs, not how to unfold it.
type Model struct {
	Eps, D1, D2, Delta, C, Ell, Slack simtime.Duration
}

// fields lists the vector in flag order, one name and one help text per
// parameter.
func (m *Model) fields() []modelField {
	return []modelField{
		{"eps", &m.Eps, "clock offset bound ε"},
		{"d1", &m.D1, "designed minimum message delay d1 (enforced: early frames are held)"},
		{"d2", &m.D2, "designed maximum message delay d2 (measured: late frames are counted)"},
		{"delta", &m.Delta, "update propagation margin δ"},
		{"c", &m.C, "read/write cost split knob c"},
		{"ell", &m.Ell, "timer-service lateness budget ℓ"},
		{"slack", &m.Slack, "scheduling slack the online check adds to ε in its window relaxation"},
	}
}

type modelField struct {
	name string
	v    *simtime.Duration
	help string
}

// durFlag is one parameter as a flag.Value: whatever time.ParseDuration
// accepts, except a negative span, which fails at Parse.
type durFlag struct{ v *simtime.Duration }

func (f durFlag) String() string {
	if f.v == nil { // the flag package probes a zero Value for the default
		return ""
	}
	return time.Duration(*f.v).String()
}

func (f durFlag) Set(s string) error {
	w, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	d, err := simtime.FromWall(w)
	if err != nil {
		return err
	}
	*f.v = d
	return nil
}

// Flags registers the vector on fs, the receiver's current values being
// the defaults, and parses into the receiver.
func (m *Model) Flags(fs *flag.FlagSet) {
	for _, f := range m.fields() {
		fs.Var(durFlag{f.v}, f.name, f.help+", a `duration`")
	}
}

// Params returns the register parameters the node programs run with: the
// algorithm is designed against the timed model and run through the clock
// transformation, so its delay bound is Theorem 4.7's widened d'2 = d2+2ε.
func (m Model) Params() register.Params {
	return register.Params{C: m.C, Delta: m.Delta, D2: m.D2 + 2*m.Eps, Epsilon: m.Eps}
}

// Validate reports whether the vector is one the registers can run:
// d1 ≤ d2 and the §6.1 constraints on Params.
func (m Model) Validate() error {
	if m.D1 > m.D2 {
		return fmt.Errorf("live: d1 = %v exceeds d2 = %v", m.D1, m.D2)
	}
	return m.Params().Validate()
}

// Bounds returns the designed link delay interval [d1, d2].
func (m Model) Bounds() simtime.Interval { return simtime.Interval{Lo: m.D1, Hi: m.D2} }

// TransferWait returns how long after W, the instant the last live peer's
// link reached it, a replacement node waits on its own clock before copying
// a peer's registers: d2 + 2ε (transfer.go has the argument; the max only
// matters to a model with d2 < 2ε, where a receive-buffer hold outlasts d2).
func (m Model) TransferWait() simtime.Duration { return max(m.D2, 2*m.Eps) + 2*m.Eps }

// Theta returns Θ, the staleness bound the seq tier's online check
// enforces: algorithm L stops serving a value once a newer update has been
// applied everywhere, which lags the newer write's response by at most c+δ
// (the read path) plus the clock offset 2ε and the timer-lateness and
// scheduling budgets.
func (m Model) Theta() simtime.Duration { return m.C + m.Delta + 2*m.Eps + m.Ell + m.Slack }

// LinOptions returns the lin tier's online linearizability check. Windows
// relax by ε+slack: algorithm S already pays for clock uncertainty, so the
// slack only covers real timer-service lateness. The state budget is small
// on purpose — a genuinely failing stage proves "no order exists" by
// exhausting the subset lattice, and an offline-sized budget means seconds
// of burn on a core the node loops need, each of which delays more frames
// past d2 and manufactures more violations; a small budget turns that into
// a quick sticky fail. Yield keeps a hard stage from stalling node loops
// into d2 overruns the checker would then (correctly) flag.
func (m Model) LinOptions() linearize.Options {
	return linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        m.Eps + m.Slack,
		AssumeUnique: true,
		MaxStates:    1 << 18,
		Yield:        runtime.Gosched,
	}
}

// SeqOptions returns the seq tier's Θ-bounded online sequential-
// consistency check.
func (m Model) SeqOptions() linearize.SeqOptions {
	return linearize.SeqOptions{
		Initial:  register.Initial.String(),
		MaxStale: m.Theta(),
		Yield:    runtime.Gosched,
	}
}

// Detector fills an unset heartbeat period and timeout: the clock-model
// safe timeout plus working slack — ℓ (timers fire late by scheduling) and
// the in-band fault sizes — so only a real outage or an out-of-model fault
// trips the detector.
func (m Model) Detector(period, timeout simtime.Duration) detector.Params {
	if period <= 0 {
		period = 150 * simtime.Millisecond
	}
	if timeout <= 0 {
		timeout = detector.SafeTimeoutClock(period, m.Bounds(), m.Eps) + m.Ell + 55*simtime.Millisecond
	}
	return detector.Params{Period: period, Timeout: timeout}
}

// Envelope compares what a run measured against the vector's three
// assumptions — ε̂ ≤ ε, no frame past d2, timer lateness ≤ ℓ — and says
// "held" or which were exceeded and by how much. It gates nothing (chaos
// runs leave the envelope on purpose); it is what keeps a verdict from
// being reported without its assumptions.
func (m Model) Envelope(got Measured) string {
	var over []string
	if got.Eps > m.Eps {
		over = append(over, fmt.Sprintf("ε̂=%v over ε=%v by %v", got.Eps, m.Eps, got.Eps-m.Eps))
	}
	if got.DelayViolations > 0 {
		s := fmt.Sprintf("%d frames past d2=%v", got.DelayViolations, m.D2)
		if got.DelayMax > m.D2 {
			s += fmt.Sprintf(" by up to %v", got.DelayMax-m.D2)
		}
		over = append(over, s)
	}
	if got.TimerLate > m.Ell {
		over = append(over, fmt.Sprintf("timer lateness %v over ℓ=%v by %v", got.TimerLate, m.Ell, got.TimerLate-m.Ell))
	}
	if len(over) == 0 {
		return "held"
	}
	return "exceeded: " + strings.Join(over, "; ")
}
