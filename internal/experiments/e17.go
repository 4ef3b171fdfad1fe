package experiments

import (
	"fmt"
	"time"

	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
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
// Unlike E1–E16 this experiment runs on real time (the in-process
// transport, perfect clocks, a deliberately generous configured ε), so
// its latencies are measurements, not derivations: ε is chosen large
// enough that the 2ε structure dwarfs scheduling noise, and the
// assertion is the conservative "discount ≥ ε", not the sharp 2ε.
func E17TieredLive() Result {
	const (
		eps   = 10 * ms // configured ε: the S tier's read wait is 2ε = 20ms
		slack = 20 * ms // widening for scheduling noise in the lin gate
	)
	// The run's model: d2 is a budget loopback stays far under, and ℓ =
	// 2·slack puts the seq tier's Θ at c+δ+2ε+3·slack = 80.1ms.
	m := live.Model{Eps: eps, D2: 10 * ms, Delta: 100 * us, Ell: 2 * slack, Slack: slack}
	fail := func(f string, a ...any) Result {
		return Result{ID: "E17", Title: e17Title, Failures: []string{fmt.Sprintf(f, a...)}}
	}
	tiers := []register.Tier{register.TierLin, register.TierSeq}
	const nNodes = 2
	// Register 0 (lin) gets the exact online linearizability engine widened
	// by ε+slack, register 1 (seq) the Θ-bounded online sequential-
	// consistency engine — the stack pscserve -tiers judges with.
	verdict := live.NewVerdict(live.VerdictConfig{Model: m, Nodes: nNodes, Registers: len(tiers), Tiers: tiers})
	rt, srv, err := live.Deploy(m, tiers, nil, live.Options{N: nNodes}, verdict)
	if err != nil {
		return fail("deploy: %v", err)
	}
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
	got := rt.Stop()
	out := verdict.Finish()

	fails := out.Messages // names the failing register; the table marks each tier
	if res.Errors > 0 {
		fails = append(fails, fmt.Sprintf("%d client errors", res.Errors))
	}
	if got.RecorderDrops > 0 {
		fails = append(fails, fmt.Sprintf("%d recorder drops", got.RecorderDrops))
	}

	tb := stats.NewTable("tier", "algorithm", "ops", "reads", "read p50", "write p50", "verified")
	for i, tier := range tiers {
		tl := res.Tier[tier]
		if tl.Reads == 0 {
			fails = append(fails, fmt.Sprintf("tier %s completed no reads: discount unmeasurable", tier))
		}
		alg := "S (lin, Thm 6.5)"
		if tier == register.TierSeq {
			alg = "L (seq, Lemma 6.1)"
		}
		tb.AddRow(tier.String(), alg, fmt.Sprint(tl.Ops), fmt.Sprint(tl.Reads),
			fmtD(tl.ReadLat.P50), fmtD(tl.WriteLat.P50), checkMark(out.PerReg[i].OK))
	}

	lin, seq := res.Tier[register.TierLin], res.Tier[register.TierSeq]
	discount := lin.ReadLat.P50 - seq.ReadLat.P50
	if lin.Reads > 0 && seq.Reads > 0 && discount < eps {
		fails = append(fails, fmt.Sprintf(
			"seq-tier read discount %v below ε=%v (theoretical gap 2ε=%v): the weaker tier is not paying for itself",
			discount, simtime.Duration(eps), simtime.Duration(2*eps)))
	}
	note := fmt.Sprintf("%d live ops over %d nodes (in-process transport): seq reads %v cheaper at p50 (2ε=%v, asserted ≥ ε=%v);\n"+
		"write p50 lin %v vs seq %v (both pay d'2−c); tiers verified online with %d violations.\n",
		res.Ops, nNodes, discount, simtime.Duration(2*eps), simtime.Duration(eps),
		lin.WriteLat.P50, seq.WriteLat.P50, out.Violations)
	return Result{
		ID:       "E17",
		Title:    e17Title,
		Output:   tb.String() + note,
		Failures: fails,
	}
}

const e17Title = "tiered keyed store live: the L-tier read discount vs S on shared nodes"
