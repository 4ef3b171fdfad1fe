package live

import (
	"flag"
	"io"
	"math/rand"
	"testing"

	"psclock/internal/register"
	"psclock/internal/simtime"
)

// The two vectors the binaries default to: pscserve's, and the fleet's
// (fleet.DefaultModel; spelled out here because fleet imports live).
var defaultModels = []struct {
	name string
	m    Model
}{
	{"pscserve", Model{Eps: 200 * us, D2: 5 * ms, Delta: 100 * us, Ell: 5 * ms, Slack: ms}},
	{"pscfleet", Model{Eps: 2 * ms, D2: 10 * ms, Delta: ms, Ell: 5 * ms, Slack: 6 * ms}},
}

// TestModelDerivations pins every closed form the model unfolds to the
// paper's: Theorem 4.7's widened bound, Theorem 6.5's costs, the seq
// tier's Θ and the check's window relaxation.
func TestModelDerivations(t *testing.T) {
	for _, tc := range defaultModels {
		m := tc.m
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		p := m.Params()
		if p.D2 != m.D2+2*m.Eps {
			t.Errorf("%s: d'2 = %v, want d2+2ε = %v", tc.name, p.D2, m.D2+2*m.Eps)
		}
		read, write := register.NewS(p).Costs()
		if read != 2*m.Eps+m.Delta+m.C || write != m.D2+2*m.Eps-m.C {
			t.Errorf("%s: costs (%v, %v), want (2ε+δ+c, d2+2ε−c) = (%v, %v)",
				tc.name, read, write, 2*m.Eps+m.Delta+m.C, m.D2+2*m.Eps-m.C)
		}
		if got, want := m.Theta(), m.C+m.Delta+2*m.Eps+m.Ell+m.Slack; got != want {
			t.Errorf("%s: Θ = %v, want %v", tc.name, got, want)
		}
		if got := m.SeqOptions().MaxStale; got != m.Theta() {
			t.Errorf("%s: seq check bounds staleness at %v, want Θ = %v", tc.name, got, m.Theta())
		}
		if got := m.LinOptions().Widen; got != m.Eps+m.Slack {
			t.Errorf("%s: lin check widens by %v, want ε+slack = %v", tc.name, got, m.Eps+m.Slack)
		}
		if iv := m.Bounds(); iv.Lo != m.D1 || iv.Hi != m.D2 {
			t.Errorf("%s: bounds %v, want [%v, %v]", tc.name, iv, m.D1, m.D2)
		}
		if got := m.TransferWait(); got != p.D2 {
			t.Errorf("%s: transfer wait %v, want d2+2ε = %v", tc.name, got, p.D2)
		}
	}
	if got := (Model{Eps: 3 * ms, D2: 4 * ms, Delta: ms}).TransferWait(); got != 12*ms {
		t.Errorf("transfer wait with d2 < 2ε = %v, want 2ε+2ε: a receive-buffer hold outlasts d2", got)
	}
	if err := (Model{Eps: ms, D1: 6 * ms, D2: 5 * ms, Delta: ms}).Validate(); err == nil {
		t.Error("d1 > d2 validates")
	}
	if err := (Model{Eps: ms, D2: 5 * ms, Delta: ms, C: 6 * ms}).Validate(); err == nil {
		t.Error("c > d'2 − 2ε validates")
	}
}

func parseModel(defaults Model, args []string) (Model, error) {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := defaults
	m.Flags(fs)
	return m, fs.Parse(args)
}

// TestModelFlagsRoundTrip: the rendered argument list parses back to the
// same vector whatever the defaults it is parsed over, unset flags keep the
// receiver's values, and a negative duration fails at Parse.
func TestModelFlagsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := []Model{{}, defaultModels[0].m, defaultModels[1].m}
	for i := 0; i < 200; i++ {
		var m Model
		for _, f := range m.fields() {
			*f.v = simtime.Duration(rng.Int63n(int64(20 * ms))) // nanosecond-grained
		}
		models = append(models, m)
	}
	for _, m := range models {
		for _, tc := range defaultModels {
			got, err := parseModel(tc.m, m.Args())
			if err != nil || got != m {
				t.Fatalf("%v over %s defaults: parsed %+v (err %v), want %+v", m.Args(), tc.name, got, err, m)
			}
		}
	}
	for _, tc := range defaultModels {
		got, err := parseModel(tc.m, []string{"-d2", "7ms"})
		want := tc.m
		want.D2 = 7 * ms
		if err != nil || got != want {
			t.Errorf("%s: -d2 7ms parsed %+v (err %v), want %+v", tc.name, got, err, want)
		}
	}
	for _, f := range new(Model).fields() {
		if _, err := parseModel(Model{}, []string{"-" + f.name, "-1ms"}); err == nil {
			t.Errorf("-%s -1ms: Parse accepted a negative duration", f.name)
		}
		if _, err := parseModel(Model{}, []string{"-" + f.name, "5"}); err == nil {
			t.Errorf("-%s 5: Parse accepted a duration without a unit", f.name)
		}
	}
}

// TestModelEnvelope: held inside the vector, and each exceeded assumption
// is named with its overshoot.
func TestModelEnvelope(t *testing.T) {
	m := defaultModels[0].m
	if got := m.Envelope(Measured{Eps: m.Eps, TimerLate: m.Ell, DelayMax: m.D2}); got != "held" {
		t.Errorf("at the bounds: %q, want held", got)
	}
	got := m.Envelope(Measured{Eps: m.Eps + 50*us, DelayViolations: 3, DelayMax: m.D2 + 2*ms, TimerLate: m.Ell + ms})
	want := "exceeded: ε̂=250µs over ε=200µs by 50µs; 3 frames past d2=5ms by up to 2ms; timer lateness 6ms over ℓ=5ms by 1ms"
	if got != want {
		t.Errorf("outside every bound:\n got %q\nwant %q", got, want)
	}
	// The fleet aggregates counts, not the slowest frame.
	if got, want := m.Envelope(Measured{DelayViolations: 1}), "exceeded: 1 frames past d2=5ms"; got != want {
		t.Errorf("count only: %q, want %q", got, want)
	}
}
