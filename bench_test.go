// Benchmarks regenerating every experiment table/figure (E1–E16, one bench
// per table or figure series; see DESIGN.md §4 and EXPERIMENTS.md), plus
// micro-benchmarks of the substrates. Each experiment bench prints its
// table once and fails if any of the paper's claims did not hold.
//
// The experiment benches run on the parallel harness: each experiment
// fans its seeded rows over a worker pool of width GOMAXPROCS.
package psclock_test

import (
	"fmt"
	"sync"
	"testing"

	"psclock"
	"psclock/internal/experiments"
)

var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		r := e.Run()
		if once, _ := printOnce.LoadOrStore(id, new(sync.Once)); true {
			once.(*sync.Once).Do(func() { fmt.Println(r) })
		}
		if !r.Pass() {
			b.Fatalf("%s failed:\n%s", id, r)
		}
	}
}

// Table 1 (Lemma 6.1): algorithm L costs in D_T.
func BenchmarkE1AlgorithmL(b *testing.B) { runExperiment(b, "E1") }

// Table 2 (Lemma 6.2): algorithm S superlinearizability in D_T.
func BenchmarkE2AlgorithmS(b *testing.B) { runExperiment(b, "E2") }

// Table 3 (Theorem 6.5): transformed S in D_C.
func BenchmarkE3ClockModel(b *testing.B) { runExperiment(b, "E3") }

// Table 4 + Figure 1 (§6.3): comparison against the [10] baseline.
func BenchmarkE4Comparison(b *testing.B) { runExperiment(b, "E4") }

// Table 5 (Theorem 4.7): simulation-1 real-time preservation.
func BenchmarkE5Sim1Shift(b *testing.B) { runExperiment(b, "E5") }

// Figure 2 (Lemma 4.5): message clock-time delay bounds.
func BenchmarkE6ClockDelay(b *testing.B) { runExperiment(b, "E6") }

// Figure 3 (§7.2): receive-buffer cost vs d1/2ε.
func BenchmarkE7Buffering(b *testing.B) { runExperiment(b, "E7") }

// Table 6 + Figure 4 (Theorems 5.1/5.2): simulation-2 output shift.
func BenchmarkE8MMTShift(b *testing.B) { runExperiment(b, "E8") }

// Table 7: verification matrix with mutations.
func BenchmarkE9Matrix(b *testing.B) { runExperiment(b, "E9") }

// Figure 5: executor throughput by model and size.
func BenchmarkE10Throughput(b *testing.B) { runExperiment(b, "E10") }

// Table 8: the §6 result generalized to other shared-memory objects.
func BenchmarkE11Objects(b *testing.B) { runExperiment(b, "E11") }

// Table 9: §7.3 failures explored (crash-stop tolerated, lossy links not).
func BenchmarkE12Failures(b *testing.B) { runExperiment(b, "E12") }

// --- Substrate micro-benchmarks ---

// BenchmarkExecutorRegisterClock measures end-to-end simulated operations
// per benchmark second for the clock-model register system.
func BenchmarkExecutorRegisterClock(b *testing.B) {
	const (
		ms = psclock.Millisecond
		us = psclock.Microsecond
	)
	eps := 300 * us
	bounds := psclock.NewInterval(1*ms, 3*ms)
	p := psclock.RegisterParams{C: 500 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
	b.ReportAllocs()
	ops := 0
	for i := 0; i < b.N; i++ {
		net := psclock.BuildClocked(psclock.SystemConfig{
			N: 3, Bounds: bounds, Seed: int64(i), Clocks: psclock.DriftClocks(eps, int64(i)),
		}, psclock.RegisterFactory(psclock.NewRegisterS, p))
		net.Sys.KeepTrace = false
		for _, n := range net.Clocked {
			n.RecordStamps = false
		}
		clients := psclock.AttachClients(net, psclock.WorkloadConfig{
			Ops: 20, Think: psclock.NewInterval(0, 2*ms), WriteRatio: 0.4, Seed: int64(i),
		})
		if _, err := net.Sys.RunQuiet(psclock.Time(60 * psclock.Second)); err != nil {
			b.Fatal(err)
		}
		for _, c := range clients {
			ops += c.Done
		}
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
}

// BenchmarkClockAt measures clock reads on the drifting model.
func BenchmarkClockAt(b *testing.B) {
	m := psclock.DriftClock(psclock.Millisecond, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.At(psclock.Time(i%int(50*psclock.Millisecond)) + 1)
	}
}

// BenchmarkClockEarliestAt measures clock inversion.
func BenchmarkClockEarliestAt(b *testing.B) {
	m := psclock.DriftClock(psclock.Millisecond, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.EarliestAt(psclock.Time(i%int(50*psclock.Millisecond)) + 1)
	}
}

// BenchmarkLinearizeSequential measures checker throughput on a long
// near-sequential history.
func BenchmarkLinearizeSequential(b *testing.B) {
	var ops []psclock.Op
	val := "v0"
	ts := psclock.Time(0)
	for i := 0; i < 2000; i++ {
		kind := psclock.Read
		if i%3 == 0 {
			kind = psclock.Write
			val = fmt.Sprintf("w%d", i)
		}
		ops = append(ops, psclock.Op{Node: psclock.NodeID(i % 5), Kind: kind, Value: val, Inv: ts, Res: ts + 10})
		ts += 20
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := psclock.CheckLinearizable(ops, "v0"); !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

// BenchmarkLinearizeConcurrent measures the checker under genuine
// concurrency (overlapping windows at 6 nodes).
func BenchmarkLinearizeConcurrent(b *testing.B) {
	var ops []psclock.Op
	for round := 0; round < 100; round++ {
		base := psclock.Time(round * 100)
		w := fmt.Sprintf("w%d", round)
		ops = append(ops, psclock.Op{Node: 0, Kind: psclock.Write, Value: w, Inv: base, Res: base + 90})
		for n := 1; n < 6; n++ {
			v := "v0"
			if round > 0 {
				v = fmt.Sprintf("w%d", round-1)
			}
			if n%2 == 0 {
				v = w
			}
			ops = append(ops, psclock.Op{Node: psclock.NodeID(n), Kind: psclock.Read, Value: v,
				Inv: base + psclock.Time(n), Res: base + 95})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := psclock.CheckLinearizable(ops, "v0"); !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

// BenchmarkTraceRelations measures the =_{ε,κ} decision procedure on a
// 10k-event pair of traces.
func BenchmarkTraceRelations(b *testing.B) {
	var a1, a2 psclock.Trace
	for i := 0; i < 10000; i++ {
		e := psclock.Event{
			Action: psclock.Action{Name: "X", Node: psclock.NodeID(i % 8), Peer: -1, Kind: 2, Payload: i},
			At:     psclock.Time(i * 100),
		}
		a1 = append(a1, e)
		e.At += psclock.Time(i % 7)
		a2 = append(a2, e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := psclock.MinEps(a1, a2, psclock.ByNode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMTRegister measures the full MMT pipeline (both simulations)
// end to end.
func BenchmarkMMTRegister(b *testing.B) { benchMMTRegister(b, 3, 0) }

// BenchmarkMMTRegisterSeqN8 / BenchmarkMMTRegisterShardedN8 are the
// sequential-vs-sharded pair for shard-count tuning at the E10 problem
// size; profile them with -cpuprofile to see where a shard configuration
// spends its time.
func BenchmarkMMTRegisterSeqN8(b *testing.B)     { benchMMTRegister(b, 8, -1) }
func BenchmarkMMTRegisterShardedN8(b *testing.B) { benchMMTRegister(b, 8, 8) }

func benchMMTRegister(b *testing.B, n, shards int) {
	const (
		ms = psclock.Millisecond
		us = psclock.Microsecond
	)
	eps := 200 * us
	ell := 100 * us
	bounds := psclock.NewInterval(1*ms, 3*ms)
	p := psclock.RegisterParams{C: 300 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps + 24*ell, Epsilon: eps}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := psclock.BuildMMT(psclock.SystemConfig{
			N: n, Bounds: bounds, Seed: int64(i), Clocks: psclock.DriftClocks(eps, int64(i)), Ell: ell,
			Shards: shards,
		}, psclock.RegisterFactory(psclock.NewRegisterS, p))
		net.Sys.KeepTrace = false
		for _, n := range net.MMT {
			n.RecordStamps = false
		}
		clients := psclock.AttachClients(net, psclock.WorkloadConfig{
			Ops: 10, Think: psclock.NewInterval(0, 2*ms), WriteRatio: 0.4, Seed: int64(i),
		})
		for net.Sys.Now() < psclock.Time(10*psclock.Second) {
			done := true
			for _, c := range clients {
				if c.Done != 10 {
					done = false
				}
			}
			if done {
				break
			}
			if err := net.Sys.Run(net.Sys.Now().Add(20 * ms)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Figure 6: clock granularity — TICK period sweep in D_M.
func BenchmarkE13Granularity(b *testing.B) { runExperiment(b, "E13") }

// Table 10: the Attiya-Welch boundary — L in D_C is sequentially
// consistent but not linearizable.
func BenchmarkE14SeqConsistency(b *testing.B) { runExperiment(b, "E14") }

// Table 11: failure detection — timeout margin sweep in the clock model.
func BenchmarkE15Detector(b *testing.B) { runExperiment(b, "E15") }

// Table 12: real-time vs internal specifications under simulation 1.
func BenchmarkE16RealTimeSpecs(b *testing.B) { runExperiment(b, "E16") }
