package exec_test

// Differential tests for sharded conservative-parallel execution: every
// test runs the same seeded register system through the sequential indexed
// executor (the oracle) and the sharded executor and requires identical
// traces — byte-identical full traces wherever coalescing introduces no
// divergence (the timed and clock models, and the MMT model on the dense
// path), and identical observable traces plus emission stamps where it
// does (the MMT model with coalescing, whose window-bounded sweeps may
// synthesize extra hidden sync TICKs). They live in package exec_test
// because core imports exec. Run with -race: the lane workers are the only
// concurrency in the executor and these tests are their coverage.

import (
	"fmt"
	"runtime"
	"testing"

	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/workload"
)

// buildShardedNet builds algorithm S's register net for the model; cfg's
// Shards below 2 means the sequential executor.
func buildShardedNet(t *testing.T, model string, cfg core.Config, p register.Params) *core.Net {
	t.Helper()
	net, err := core.Build(model, cfg, register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func checkShardState(t *testing.T, net *core.Net, wantSharded bool) {
	t.Helper()
	if net.Sys.Sharded() != wantSharded {
		t.Fatalf("Sharded() = %v, want %v (fallback reason: %q)",
			net.Sys.Sharded(), wantSharded, net.Sys.ShardFallbackReason())
	}
}

// TestShardedFullTraceIdentical: models with no coalescing divergence must
// produce byte-identical full traces — labels, kinds, times, sequence
// numbers, and sources — under sharded execution. The timed and clock
// models qualify outright (their edges' deadlines are all observable, so
// the coalescer never consumes anything); the MMT model qualifies on the
// dense path.
func TestShardedFullTraceIdentical(t *testing.T) {
	for _, model := range []string{"timed", "clock", "mmt"} {
		for _, seed := range []int64{1, 2} {
			model, seed := model, seed
			t.Run(fmt.Sprintf("%s/seed%d", model, seed), func(t *testing.T) {
				t.Parallel()
				runOne := func(shards int) string {
					cfg, p := extConfig(seed, 200*extUS, core.LazySteps)
					cfg.Shards = shards
					net := buildShardedNet(t, model, cfg, p)
					if model == "mmt" {
						net.Sys.DisableCoalescing()
					}
					clients := workload.AttachScripted(net, extScripts(cfg.N, 6))
					if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					checkShardState(t, net, shards > 1)
					for _, c := range clients {
						if c.Err != nil {
							t.Fatalf("shards=%d: %v", shards, c.Err)
						}
						if c.Done != 6 {
							t.Fatalf("shards=%d: %s finished %d/6", shards, c.Name(), c.Done)
						}
					}
					return renderFull(net.Sys.Trace())
				}
				sharded, seq := runOne(3), runOne(-1)
				if sharded != seq {
					t.Errorf("full traces diverge under sharding:\nsharded:\n%s\nsequential:\n%s", trim(sharded), trim(seq))
				}
			})
		}
	}
}

// TestMMTShardedCoalescedObservableIdentical: the MMT model with
// coalescing enabled must keep identical observable traces and identical
// per-node emission stamps under sharding, while still actually skipping
// ticks and steps (the sharded path must not quietly fall back to dense
// sweeps inside its windows).
func TestMMTShardedCoalescedObservableIdentical(t *testing.T) {
	policies := []struct {
		name string
		mk   func() core.StepPolicy
	}{
		{"lazy", core.LazySteps},
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
				}
				runOne := func(shards int) result {
					cfg, p := extConfig(seed, 200*extUS, pol.mk)
					cfg.Shards = shards
					net := core.BuildMMT(cfg, register.Factory(register.NewS, p))
					clients := workload.AttachScripted(net, extScripts(cfg.N, 6))
					if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					checkShardState(t, net, shards > 1)
					for _, c := range clients {
						if c.Err != nil {
							t.Fatalf("shards=%d: %v", shards, c.Err)
						}
						if c.Done != 6 {
							t.Fatalf("shards=%d: %s finished %d/6", shards, c.Name(), c.Done)
						}
					}
					var r result
					r.observable = renderObservable(net.Sys.Trace())
					r.stamps = renderStamps(net.MMT)
					for _, ts := range net.Ticks {
						r.skippedTicks += ts.SkippedTicks()
					}
					return r
				}
				sharded, seq := runOne(3), runOne(-1)
				if sharded.skippedTicks == 0 {
					t.Error("sharded coalesced run skipped no ticks; fast path untested")
				}
				if sharded.observable != seq.observable {
					t.Errorf("observable traces diverge:\nsharded:\n%s\nsequential:\n%s", trim(sharded.observable), trim(seq.observable))
				}
				if sharded.stamps != seq.stamps {
					t.Errorf("emission stamps diverge:\nsharded:\n%s\nsequential:\n%s", trim(sharded.stamps), trim(seq.stamps))
				}
			})
		}
	}
}

// TestShardedRunQuietIdentical: RunQuiet must reach the same quiescence
// verdict and the same trace on both paths. The timed model quiesces once
// the scripted operations drain (nothing ticks forever).
func TestShardedRunQuietIdentical(t *testing.T) {
	t.Parallel()
	runOne := func(shards int) (string, bool) {
		cfg, p := extConfig(4, 100*extUS, core.LazySteps)
		cfg.Shards = shards
		net := core.BuildTimed(cfg, register.Factory(register.NewS, p))
		workload.AttachScripted(net, extScripts(cfg.N, 4))
		quiet, err := net.Sys.RunQuiet(simtime.Time(500 * extMS))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkShardState(t, net, shards > 1)
		return renderFull(net.Sys.Trace()), quiet
	}
	shTrace, shQuiet := runOne(3)
	seqTrace, seqQuiet := runOne(-1)
	if shQuiet != seqQuiet {
		t.Errorf("quiescence verdicts diverge: sharded %v, sequential %v", shQuiet, seqQuiet)
	}
	if shTrace != seqTrace {
		t.Errorf("RunQuiet traces diverge:\nsharded:\n%s\nsequential:\n%s", trim(shTrace), trim(seqTrace))
	}
}

// TestShardedSlicedRunIdentical drives Run in short slices whose bounds
// land mid-window, the way the experiment harnesses advance simulated
// time. A round truncated by the run bound legitimately leaves deadlines
// in (until, window-end) unfired; the barrier's lookahead check must not
// mistake them for violations (regression: E2 under -shards failed on a
// cross-shard message due past the slice bound).
func TestShardedSlicedRunIdentical(t *testing.T) {
	t.Parallel()
	for _, model := range []string{"timed", "clock", "mmt"} {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			runOne := func(shards int) string {
				cfg, p := extConfig(7, 200*extUS, core.LazySteps)
				cfg.Shards = shards
				net := buildShardedNet(t, model, cfg, p)
				workload.AttachScripted(net, extScripts(cfg.N, 5))
				// Slice width deliberately not a divisor of the 1ms
				// lookahead so bounds fall inside windows.
				for net.Sys.Now() < simtime.Time(90*extMS) {
					if err := net.Sys.Run(net.Sys.Now().Add(700 * extUS)); err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
				}
				checkShardState(t, net, shards > 1)
				return renderObservable(net.Sys.Trace())
			}
			if got, want := runOne(3), runOne(-1); got != want {
				t.Errorf("sliced-run observable traces diverge:\nsharded:\n%s\nsequential:\n%s", trim(got), trim(want))
			}
		})
	}
}

// TestShardedZeroLookaheadFallback: a system whose cross-shard edges have
// no minimum delay cannot be sharded safely; the executor must fall back
// to sequential execution — with a reason — and still produce the oracle
// trace.
func TestShardedZeroLookaheadFallback(t *testing.T) {
	t.Parallel()
	runOne := func(shards int) string {
		cfg, p := extConfig(5, 100*extUS, core.LazySteps)
		cfg.Bounds = simtime.NewInterval(0, 3*extMS)
		cfg.Shards = shards
		net := core.BuildTimed(cfg, register.Factory(register.NewS, p))
		workload.AttachScripted(net, extScripts(cfg.N, 4))
		if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// The request must NOT take effect: zero lookahead means no safe
		// window exists.
		checkShardState(t, net, false)
		if shards > 1 && net.Sys.ShardFallbackReason() == "" {
			t.Error("fallback engaged without a reason")
		}
		return renderFull(net.Sys.Trace())
	}
	if got, want := runOne(3), runOne(-1); got != want {
		t.Errorf("fallback trace diverges from sequential:\nfallback:\n%s\nsequential:\n%s", trim(got), trim(want))
	}
}

// TestShardedParallelWorkers forces GOMAXPROCS above the shard count so
// runLanes takes the goroutine path even on a single-core machine, then
// re-checks observable equivalence. Combined with -race this is the data
// race coverage for the lane workers. Not parallel: it adjusts a
// process-global runtime setting.
func TestShardedParallelWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	runOne := func(shards int) string {
		cfg, p := extConfig(6, 200*extUS, core.LazySteps)
		cfg.Shards = shards
		net := core.BuildMMT(cfg, register.Factory(register.NewS, p))
		clients := workload.AttachScripted(net, extScripts(cfg.N, 6))
		if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkShardState(t, net, shards > 1)
		for _, c := range clients {
			if c.Err != nil {
				t.Fatalf("shards=%d: %v", shards, c.Err)
			}
		}
		return renderObservable(net.Sys.Trace())
	}
	if got, want := runOne(3), runOne(-1); got != want {
		t.Errorf("observable traces diverge with parallel lane workers:\nsharded:\n%s\nsequential:\n%s", trim(got), trim(want))
	}
}
