package spec

import (
	"fmt"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Adversary is one resolution of the models' nondeterminism: the clock
// behavior within the ±ε band, the message delays within [d1,d2], and the
// MMT step times within (0,ℓ]. "D solves P" quantifies over all of them;
// the harness samples an ensemble with the boundary cases included, since
// that is where the paper's bounds are tight.
type Adversary struct {
	Name   string
	Clocks clock.Factory
	Delays func() channel.DelayPolicy
	Steps  func() core.StepPolicy
}

// StandardAdversaries returns the ensemble internal/spec's tests check
// against: four of clock.Adversaries (the boundary cases max skew and
// sawtooth jumps, seeded drift, and perfect clocks) crossed with four of
// channel.Policies (all-min, all-max, maximal reordering, and a uniform
// sample), clock-major in that order.
func StandardAdversaries(eps simtime.Duration, seed int64) []Adversary {
	var out []Adversary
	for _, c := range []string{"perfect", "spread", "drift", "sawtooth"} {
		clocks, err := clock.Named(c, eps, seed)
		if err != nil {
			panic(err)
		}
		for _, d := range []string{"min", "max", "spread", "uniform"} {
			delays, err := channel.Named(d)
			if err != nil {
				panic(err)
			}
			out = append(out, Adversary{Name: c + "/" + d, Clocks: clocks, Delays: delays, Steps: core.LazySteps})
		}
	}
	return out
}

// Verdict is the outcome of checking one adversary's execution.
type Verdict struct {
	Adversary string
	OK        bool
	Reason    string
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("%s: ok", v.Adversary)
	}
	return fmt.Sprintf("%s: FAIL (%s)", v.Adversary, v.Reason)
}

// Solves checks a system family against a problem over an adversary
// ensemble: for each adversary, build drives an execution and returns its
// visible trace, and the problem decides membership. It returns one
// verdict per adversary; AllOK summarizes.
func Solves(p Problem, advs []Adversary, build func(Adversary) (ta.Trace, error)) []Verdict {
	out := make([]Verdict, 0, len(advs))
	for _, adv := range advs {
		tr, err := build(adv)
		if err != nil {
			out = append(out, Verdict{Adversary: adv.Name, OK: false, Reason: err.Error()})
			continue
		}
		ok, reason := p.Holds(tr)
		out = append(out, Verdict{Adversary: adv.Name, OK: ok, Reason: reason})
	}
	return out
}

// SolvesEps is Solves for the relaxed problem P_ε (Definition 2.11): what
// Theorem 4.7 guarantees for a transformed system.
func SolvesEps(p Problem, eps simtime.Duration, advs []Adversary, build func(Adversary) (ta.Trace, error)) []Verdict {
	out := make([]Verdict, 0, len(advs))
	for _, adv := range advs {
		tr, err := build(adv)
		if err != nil {
			out = append(out, Verdict{Adversary: adv.Name, OK: false, Reason: err.Error()})
			continue
		}
		ok, reason := p.HoldsEps(tr, eps)
		out = append(out, Verdict{Adversary: adv.Name, OK: ok, Reason: reason})
	}
	return out
}

// AllOK reports whether every verdict passed, and the first failure.
func AllOK(vs []Verdict) (bool, string) {
	for _, v := range vs {
		if !v.OK {
			return false, v.String()
		}
	}
	return true, ""
}
