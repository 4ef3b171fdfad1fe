package exec_test

// External differential tests for the coalescing fast path: the synthetic
// in-package matrix (differential_test.go) exercises the executor
// mechanics, while these drive the real MMT-model register system from
// internal/core through dense and coalesced execution (the timed and
// clock models have no Coalescable component, so their dense and
// coalesced runs execute the same code). They live in package exec_test
// because core imports exec.

import (
	"fmt"
	"strings"
	"testing"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

const (
	extUS = simtime.Microsecond
	extMS = simtime.Millisecond
)

// extConfig is the shared register-system shape: small enough that the
// dense oracle stays cheap, tick-dense enough (period = ℓ) that the
// coalesced path has real work to skip.
func extConfig(seed int64, ell simtime.Duration, step func() core.StepPolicy) (core.Config, register.Params) {
	bounds := simtime.NewInterval(1*extMS, 3*extMS)
	eps := 200 * extUS
	cfg := core.Config{
		N:        3,
		Bounds:   bounds,
		Seed:     seed,
		Clocks:   clock.DriftFactory(eps, seed*7+11),
		NewDelay: channel.UniformDelay,
		Ell:      ell,
		NewStep:  step,
	}
	p := register.Params{
		C:       500 * extUS,
		Delta:   10 * extUS,
		D2:      bounds.Hi + 2*eps + 24*ell,
		Epsilon: eps,
	}
	return cfg, p
}

func extScripts(n, ops int) [][]workload.ScriptOp {
	scripts := make([][]workload.ScriptOp, n)
	for i := range scripts {
		scripts[i] = workload.MakeScript(ops, simtime.Time(i)*simtime.Time(extMS), 10*extMS, 0.4, 550+int64(i))
	}
	return scripts
}

// renderFull includes sequence numbers: used where dense and coalesced
// executions must be byte-identical event for event.
func renderFull(tr ta.Trace) string {
	var sb strings.Builder
	for _, e := range tr {
		fmt.Fprintf(&sb, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
	}
	return sb.String()
}

// renderObservable drops hidden events and sequence numbers: skipped ticks
// and idle steps consume Seq on the dense path, so coalesced equivalence
// is label/kind/time/source on the visible trace.
func renderObservable(tr ta.Trace) string {
	var sb strings.Builder
	for _, e := range tr.Visible() {
		fmt.Fprintf(&sb, "%s|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Src)
	}
	return sb.String()
}

func renderStamps(nodes []*core.MMTNode) string {
	var sb strings.Builder
	for _, n := range nodes {
		for _, st := range n.Stamps() {
			fmt.Fprintf(&sb, "%s|%s|%d|%d|%d\n", n.Name(), st.Action.Label(), st.SimClock, st.Real, st.Queued)
		}
	}
	return sb.String()
}

func trim(s string) string {
	lines := strings.SplitN(s, "\n", 31)
	if len(lines) > 30 {
		return strings.Join(lines[:30], "\n") + "\n..."
	}
	return s
}

// TestMMTModelCoalescedObservableIdentical runs the MMT register system
// dense and coalesced across seeds and step policies (including the
// randomized one, whose fast-forward must replay its seeded draws) and
// requires identical observable traces and identical per-node emission
// stamps — while the coalesced run must actually have skipped ticks and
// steps.
func TestMMTModelCoalescedObservableIdentical(t *testing.T) {
	policies := []struct {
		name string
		mk   func() core.StepPolicy
	}{
		{"lazy", core.LazySteps},
		{"eager", core.EagerSteps},
		{"uniform", core.UniformSteps},
	}
	for _, seed := range []int64{1, 2} {
		for _, pol := range policies {
			seed, pol := seed, pol
			t.Run(fmt.Sprintf("seed%d/%s", seed, pol.name), func(t *testing.T) {
				t.Parallel()
				type result struct {
					observable, stamps string
					skippedTicks       int64
					skippedSteps       int64
				}
				runOne := func(dense bool) result {
					cfg, p := extConfig(seed, 200*extUS, pol.mk)
					net := core.BuildMMT(cfg, register.Factory(register.NewS, p))
					if dense {
						net.Sys.DisableCoalescing()
					}
					clients := workload.AttachScripted(net, extScripts(cfg.N, 6))
					if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
						t.Fatalf("dense=%v: %v", dense, err)
					}
					for _, c := range clients {
						if c.Err != nil {
							t.Fatalf("dense=%v: %v", dense, c.Err)
						}
						if c.Done != 6 {
							t.Fatalf("dense=%v: %s finished %d/6", dense, c.Name(), c.Done)
						}
					}
					var r result
					r.observable = renderObservable(net.Sys.Trace())
					r.stamps = renderStamps(net.MMT)
					for _, ts := range net.Ticks {
						r.skippedTicks += ts.SkippedTicks()
					}
					for _, n := range net.MMT {
						r.skippedSteps += n.SkippedSteps()
					}
					return r
				}
				coal, dense := runOne(false), runOne(true)
				if dense.skippedTicks != 0 || dense.skippedSteps != 0 {
					t.Fatalf("dense oracle skipped events: ticks=%d steps=%d", dense.skippedTicks, dense.skippedSteps)
				}
				if coal.skippedTicks == 0 {
					t.Error("coalesced run skipped no ticks; fast path untested")
				}
				if coal.skippedSteps == 0 {
					t.Error("coalesced run skipped no steps; fast path untested")
				}
				if coal.observable != dense.observable {
					t.Errorf("observable traces diverge:\ncoalesced:\n%s\ndense:\n%s", trim(coal.observable), trim(dense.observable))
				}
				if coal.stamps != dense.stamps {
					t.Errorf("emission stamps diverge:\ncoalesced:\n%s\ndense:\n%s", trim(coal.stamps), trim(dense.stamps))
				}
			})
		}
	}
}
