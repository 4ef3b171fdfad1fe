package register

import (
	"fmt"
	"strconv"
	"strings"

	"psclock/internal/core"
	"psclock/internal/ta"
)

// Tier selects which consistency guarantee a key buys, and therefore which
// of the two §6 algorithms serves it. The trade is priced in clock terms:
// the lin tier runs algorithm S, paying the extra 2ε read wait that makes
// the key linearizable (Theorem 6.5); the seq tier runs algorithm L, which
// skips that wait — read cost c+δ instead of 2ε+c+δ — and guarantees only
// sequential consistency (the Attiya-Welch boundary experiment E14 probes).
// Writes cost d'2−c on both tiers. One node hosts any mix of tiers: the
// per-key algorithm instances share the node's clock, transport, and timer
// machinery, differing only in the read wait.
type Tier int

const (
	// TierLin is the linearizable tier: algorithm S (§6.2).
	TierLin Tier = iota
	// TierSeq is the sequentially consistent tier: algorithm L (§6.1).
	TierSeq
)

// String implements fmt.Stringer with the names the -tiers flag accepts.
func (t Tier) String() string {
	switch t {
	case TierLin:
		return "lin"
	case TierSeq:
		return "seq"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier parses "lin" or "seq".
func ParseTier(s string) (Tier, error) {
	switch s {
	case "lin":
		return TierLin, nil
	case "seq":
		return TierSeq, nil
	}
	return 0, fmt.Errorf("register: unknown tier %q (want lin or seq)", s)
}

// New constructs the tier's algorithm instance with per-key parameters.
func (t Tier) New(p Params) *LS {
	if t == TierSeq {
		return NewL(p)
	}
	return NewS(p)
}

// Factory adapts the tier to core.AlgorithmFactory, mirroring Factory.
func (t Tier) Factory(p Params) core.AlgorithmFactory {
	return func(ta.NodeID, int) core.Algorithm { return t.New(p) }
}

// ParseTiers parses a per-register tier configuration: either an explicit
// colon-separated list ("lin:seq:lin"; a short list repeats its last
// element to cover all registers) or "mix:F" with F ∈ [0,1] the fraction
// of seq-tier registers, spread deterministically and evenly across the
// index space (register i is seq iff ⌊(i+1)·F⌋ > ⌊i·F⌋). An empty string
// means all-lin, the stack's historical default.
func ParseTiers(spec string, registers int) ([]Tier, error) {
	if registers <= 0 {
		return nil, fmt.Errorf("register: tiers need registers > 0, got %d", registers)
	}
	tiers := make([]Tier, registers)
	if spec == "" {
		return tiers, nil
	}
	if frac, ok := strings.CutPrefix(spec, "mix:"); ok {
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("register: bad tier mix %q (want mix:F with F in [0,1])", spec)
		}
		for i := range tiers {
			if int(float64(i+1)*f) > int(float64(i)*f) {
				tiers[i] = TierSeq
			}
		}
		return tiers, nil
	}
	parts := strings.Split(spec, ":")
	last := TierLin
	for i := range tiers {
		if i < len(parts) {
			t, err := ParseTier(parts[i])
			if err != nil {
				return nil, err
			}
			last = t
		}
		tiers[i] = last
	}
	if len(parts) > registers {
		return nil, fmt.Errorf("register: %d tiers listed for %d registers", len(parts), registers)
	}
	return tiers, nil
}
