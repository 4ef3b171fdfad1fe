package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// E17 runs the tiered keyed store live: one set of nodes hosting a lin
// register (algorithm S) and a seq register (algorithm L) side by side,
// sharing clocks and transport, driven by mixed-tier clients over the
// wire protocol. It measures the L tier's read discount against the S
// tier on the same run — the 2ε of Lemmas 6.1/6.2, here as wall-clock
// milliseconds — while each tier is verified online against its own
// specification: exact linearizability for lin, Θ-bounded sequential
// consistency for seq. The discount must clear ε at zero violations on
// both tiers, the live counterpart of E14's simulated boundary.
//
// Unlike E1–E16 this experiment runs on real time (the in-process chan
// transport, perfect clocks, a deliberately generous configured ε), so
// its latencies are measurements, not derivations: ε is chosen large
// enough that the 2ε structure dwarfs scheduling noise, and the
// assertion is the conservative "discount ≥ ε", not the sharp 2ε.
func E17TieredLive() Result {
	const (
		eps   = 10 * ms // configured ε: the S tier's read wait is 2ε = 20ms
		slack = 20 * ms // widening for scheduling noise in the lin gate
		d2    = 10 * ms // designed max delay; loopback stays far under it
	)
	fail := func(f string, a ...any) Result {
		return Result{ID: "E17", Title: e17Title, Failures: []string{fmt.Sprintf(f, a...)}}
	}
	p := register.Params{C: 0, Delta: 100 * us, D2: d2 + 2*eps, Epsilon: eps}
	if err := p.Validate(); err != nil {
		return fail("params: %v", err)
	}
	tiers := []register.Tier{register.TierLin, register.TierSeq}

	mon := register.NewMonitor()
	// Per-key fan-out: register r0 (lin) gets the exact online
	// linearizability engine widened by ε+slack, r1 (seq) the Θ-bounded
	// online sequential-consistency engine — the same wiring pscserve's
	// -tiers mode installs.
	theta := p.C + p.Delta + 2*eps + 3*slack
	check := linearize.NewSharded(linearize.ShardedOptions{
		New: func(key string) linearize.Automaton {
			if key == "r1" {
				return linearize.NewSeqOnline(linearize.SeqOptions{
					Initial: register.Initial.String(), MaxStale: theta, Yield: runtime.Gosched,
				})
			}
			return linearize.NewOnline(linearize.Options{
				Initial: register.Initial.String(), Widen: eps + slack,
				AssumeUnique: true, MaxStates: 1 << 18, Yield: runtime.Gosched,
			})
		},
	})
	mon.AddChecker("tiered", check)
	const nNodes = 2
	mon.SetKeyFunc(func(port ta.NodeID) string { return "r" + strconv.Itoa(int(port)/nNodes) })

	rt, err := live.New(live.Options{
		N:         nNodes,
		Registers: len(tiers),
		Bounds:    simtime.NewInterval(0, d2),
		Ell:       slack,
		Clocks:    clock.PerfectFactory(),
	}, register.Factory(register.NewS, p))
	if err != nil {
		return fail("runtime: %v", err)
	}
	rt.SetRegisterFactory(func(reg int) core.AlgorithmFactory { return tiers[reg].Factory(p) })
	rt.AddSink(mon)
	srv, err := live.NewServer(rt)
	if err != nil {
		return fail("server: %v", err)
	}
	srv.SetTiers(tiers)
	if err := rt.Start(); err != nil {
		return fail("start: %v", err)
	}
	srv.Start()
	res := live.RunLoad(srv.Addrs(), live.LoadConfig{
		Clients:    4,
		Duration:   700 * time.Millisecond,
		Rate:       0, // unpaced closed loop: throughput = 1/latency per client
		WriteRatio: 0.1,
		Registers:  len(tiers),
		Seed:       17,
		Tiers:      tiers,
	})
	srv.Close()
	m := rt.Stop()

	var fails []string
	if err := mon.Err(); err != nil {
		fails = append(fails, fmt.Sprintf("stream contract: %v", err))
	}
	mon.Finish()
	if res.Errors > 0 {
		fails = append(fails, fmt.Sprintf("%d client errors", res.Errors))
	}
	if m.RecorderDrops > 0 {
		fails = append(fails, fmt.Sprintf("%d recorder drops", m.RecorderDrops))
	}

	tb := stats.NewTable("tier", "algorithm", "ops", "reads", "read p50", "write p50", "verified")
	verdicts := make([]linearize.Result, len(tiers))
	for i, tier := range tiers {
		kr, ok := check.KeyResult("r" + strconv.Itoa(i))
		if !ok {
			fails = append(fails, fmt.Sprintf("tier %s: no operations reached its checker", tier))
			continue
		}
		verdicts[i] = kr
		if !kr.OK {
			fails = append(fails, fmt.Sprintf("tier %s online check violated: %s", tier, kr.Reason))
		}
		tl := res.Tier[tier]
		if tl.Reads == 0 {
			fails = append(fails, fmt.Sprintf("tier %s completed no reads: discount unmeasurable", tier))
		}
		alg := "S (lin, Thm 6.5)"
		if tier == register.TierSeq {
			alg = "L (seq, Lemma 6.1)"
		}
		tb.AddRow(tier.String(), alg, fmt.Sprint(tl.Ops), fmt.Sprint(tl.Reads),
			fmtD(tl.ReadLat.P50), fmtD(tl.WriteLat.P50), checkMark(kr.OK))
	}

	lin, seq := res.Tier[register.TierLin], res.Tier[register.TierSeq]
	discount := lin.ReadLat.P50 - seq.ReadLat.P50
	if lin.Reads > 0 && seq.Reads > 0 && discount < eps {
		fails = append(fails, fmt.Sprintf(
			"seq-tier read discount %v below ε=%v (theoretical gap 2ε=%v): the weaker tier is not paying for itself",
			discount, simtime.Duration(eps), simtime.Duration(2*eps)))
	}
	note := fmt.Sprintf("%d live ops over %d nodes (chan transport): seq reads %v cheaper at p50 (2ε=%v, asserted ≥ ε=%v);\n"+
		"write p50 lin %v vs seq %v (both pay d'2−c); tiers verified online with %d/%d violations.\n",
		res.Ops, nNodes, discount, simtime.Duration(2*eps), simtime.Duration(eps),
		lin.WriteLat.P50, seq.WriteLat.P50, boolToInt(!verdicts[0].OK), boolToInt(!verdicts[1].OK))
	return Result{
		ID:       "E17",
		Title:    e17Title,
		Output:   tb.String() + note,
		Failures: fails,
	}
}

const e17Title = "tiered keyed store live: the L-tier read discount vs S on shared nodes"

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
