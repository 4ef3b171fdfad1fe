package core_test

import (
	"fmt"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

// TestBuildMatchesTypedBuilders: Build(model) assembles exactly the system
// its typed builder does — the same components in the same order, so the
// same full trace (hidden events included) — and rejects a model it does
// not know.
func TestBuildMatchesTypedBuilders(t *testing.T) {
	bounds := simtime.NewInterval(1*extMS, 3*extMS)
	eps, ell := 500*extUS, 50*extUS
	p := register.Params{C: 700 * extUS, Delta: 10 * extUS, D2: bounds.Hi + 2*eps + 24*ell, Epsilon: eps}
	f := register.Factory(register.NewS, p)
	config := func(seed int64) core.Config {
		return core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: clock.DriftFactory(eps, seed), Ell: ell}
	}
	hash := func(t *testing.T, net *core.Net, seed int64) uint64 {
		t.Helper()
		h := trace.NewHash()
		net.Sys.AddSink(h)
		done := workload.AllDone(workload.Attach(net, workload.Config{
			Ops: 10, Think: simtime.NewInterval(0, 2*extMS), WriteRatio: 0.4, Seed: seed, Stagger: 300 * extUS,
		}))
		if err := net.RunUntil(done, simtime.Time(10*simtime.Second)); err != nil {
			t.Fatal(err)
		}
		if !done() {
			t.Fatal("clients did not finish")
		}
		return h.Sum64()
	}
	typed := []struct {
		model string
		build func(core.Config, core.AlgorithmFactory) *core.Net
	}{
		{"timed", core.BuildTimed},
		{"clock", core.BuildClocked},
		{"mmt", core.BuildMMT},
	}
	for _, tb := range typed {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tb.model, seed), func(t *testing.T) {
				net, err := core.Build(tb.model, config(seed), f)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := hash(t, net, seed), hash(t, tb.build(config(seed), f), seed); got != want {
					t.Errorf("Build(%q) trace hash %#x, typed builder %#x", tb.model, got, want)
				}
			})
		}
	}
	for _, bad := range []string{"", "clocked", "MMT"} {
		if net, err := core.Build(bad, config(1), f); err == nil || net != nil {
			t.Errorf("Build(%q) = (%v, %v), want an error", bad, net, err)
		}
	}
}
