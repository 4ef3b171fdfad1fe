package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"psclock/internal/fleet"
	"psclock/internal/live"
)

// minCompareWallMS is the floor below which wall-time deltas are noise:
// a 3ms experiment doubling to 6ms is scheduler jitter, not a regression.
// Throughput (ops/s) metrics are rates over a time-boxed measurement and
// are compared regardless of magnitude.
const minCompareWallMS = 25.0

// loadReport reads a previous BENCH_results.json.
func loadReport(path string) (jsonReport, error) {
	var rep jsonReport
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// warnSettingsMismatch prints a warning for every execution setting that
// differs between the two reports: a throughput delta between a sequential
// and a sharded run, or a coalesced and a dense run, measures the
// configuration change, not a regression. Warnings do not fail the
// comparison — cross-configuration diffs are sometimes exactly the point —
// they just make the apples-to-oranges explicit.
func warnSettingsMismatch(old, cur jsonReport) {
	diff := func(name string, o, n any) {
		if o != n {
			fmt.Fprintf(os.Stderr, "pscbench: warning: settings differ: %s was %v, now %v — deltas below reflect the configuration change\n", name, o, n)
		}
	}
	diff("parallelism", old.Parallelism, cur.Parallelism)
	diff("shards", old.Shards, cur.Shards)
	diff("dense", old.Dense, cur.Dense)
	diff("gomaxprocs", old.GOMAXPROCS, cur.GOMAXPROCS)
}

// compareReports prints per-experiment wall-time and ops/sec deltas of cur
// against old and returns the regressions: wall time grown by more than
// tol (on experiments big enough to measure), or any ops/sec metric
// dropped by more than tol.
func compareReports(old, cur jsonReport, tol float64) []string {
	warnSettingsMismatch(old, cur)
	byID := make(map[string]jsonResult, len(old.Experiments))
	for _, e := range old.Experiments {
		byID[e.ID] = e
	}
	var regressions []string
	fmt.Printf("%-5s %-28s %10s %10s %8s\n", "exp", "measure", "old", "new", "delta")
	for _, e := range cur.Experiments {
		prev, ok := byID[e.ID]
		if !ok {
			fmt.Printf("%-5s %-28s %10s %10.1f %8s\n", e.ID, "wall ms", "-", e.WallMS, "new")
			continue
		}
		mark := ""
		if prev.WallMS >= minCompareWallMS && e.WallMS > prev.WallMS*(1+tol) {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: wall %.1fms -> %.1fms (+%.0f%%, tolerance %.0f%%)",
					e.ID, prev.WallMS, e.WallMS, pct(prev.WallMS, e.WallMS), tol*100))
		}
		fmt.Printf("%-5s %-28s %10.1f %10.1f %+7.0f%%%s\n", e.ID, "wall ms", prev.WallMS, e.WallMS, pct(prev.WallMS, e.WallMS), mark)
		// Union of old and new gated keys: a tracked metric disappearing
		// from the report is itself a gate failure, not a silent pass.
		// Throughput metrics regress downward; memory metrics (peak heap,
		// allocs/op) regress upward.
		keySet := make(map[string]bool, len(e.Metrics)+len(prev.Metrics))
		for k := range e.Metrics {
			if gatedMetric(k) {
				keySet[k] = true
			}
		}
		for k := range prev.Metrics {
			if gatedMetric(k) {
				keySet[k] = true
			}
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			o, ok := prev.Metrics[k]
			if !ok || o <= 0 {
				continue
			}
			n, ok := e.Metrics[k]
			if !ok {
				regressions = append(regressions, fmt.Sprintf("%s %s: metric missing from new report (was %.0f)", e.ID, k, o))
				fmt.Printf("%-5s %-28s %10.0f %10s %8s  REGRESSION\n", e.ID, k, o, "-", "gone")
				continue
			}
			mark := ""
			if regressed(k, o, n, tol) {
				mark = "  REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s %s: %.0f -> %.0f (%+.0f%%, tolerance %.0f%%)",
						e.ID, k, o, n, pct(o, n), tol*100))
			}
			fmt.Printf("%-5s %-28s %10.0f %10.0f %+7.0f%%%s\n", e.ID, k, o, n, pct(o, n), mark)
		}
	}
	regressions = append(regressions, compareStream(old, cur, tol)...)
	regressions = append(regressions, compareLive(old, cur, tol)...)
	regressions = append(regressions, compareFleet(old.LiveFleet, cur.LiveFleet, tol)...)
	regressions = append(regressions, compareShardScaling(old, cur)...)
	fmt.Printf("total wall: %.0f ms -> %.0f ms (%+.0f%%)\n", old.TotalWallMS, cur.TotalWallMS, pct(old.TotalWallMS, cur.TotalWallMS))
	return regressions
}

// memoryMetric reports whether a metric gates upward: more bytes or more
// allocations per operation is the regression. (Derived ratios like
// heap_ratio_retained_over_stream are informational and ungated.)
func memoryMetric(k string) bool {
	return strings.HasPrefix(k, "peak_heap") || strings.HasPrefix(k, "allocs_per_op")
}

// gatedMetric reports whether the comparison gates this metric at all.
func gatedMetric(k string) bool {
	return strings.HasPrefix(k, "ops_per_sec") || memoryMetric(k)
}

// Memory readings carry GC-timing noise that relative tolerance alone
// cannot absorb when the absolute numbers are small (a streaming run's
// whole live window is tens of KiB): a memory regression must clear the
// relative tolerance AND an absolute floor. A real leak — say the online
// checker's window failing to GC — blows through both immediately.
const (
	memSlackBytes  = 256 * 1024
	memSlackAllocs = 2.0
)

// regressed applies the metric's direction: throughput must not drop,
// memory must not grow, each beyond tol (plus the absolute memory floor).
func regressed(k string, old, cur, tol float64) bool {
	if memoryMetric(k) {
		slack := memSlackAllocs
		if strings.HasPrefix(k, "peak_heap") {
			slack = memSlackBytes
		}
		return cur > old*(1+tol) && cur-old > slack
	}
	return cur < old*(1-tol)
}

// compareStream diffs the -stream sections of two reports: streaming peak
// heap or allocs/op growing beyond tol is a regression — the memory
// profile is the whole point of the streaming pipeline. A baseline
// section the candidate run dropped is a regression (a silently vanished
// section is indistinguishable from a gate that stopped running); a
// section only the candidate has is merely new coverage.
func compareStream(old, cur jsonReport, tol float64) []string {
	if old.Stream == nil || cur.Stream == nil {
		if old.Stream != nil {
			return []string{"stream: baseline has a -stream section but the new report omits it (run with -stream to compare)"}
		}
		if cur.Stream != nil {
			fmt.Fprintln(os.Stderr, "pscbench: note: -stream section is new in this report; no baseline to compare")
		}
		return nil
	}
	o, n := old.Stream, cur.Stream
	warnSectionProcs("stream", o.GOMAXPROCS, n.GOMAXPROCS)
	if o.Ops != n.Ops {
		fmt.Fprintf(os.Stderr, "pscbench: warning: -stream sections measure different op counts (%d vs %d); streaming memory deltas not compared\n", o.Ops, n.Ops)
		return nil
	}
	var regressions []string
	row := func(name string, ov, nv float64, gate bool) {
		mark := ""
		if gate && ov > 0 && regressed(name, ov, nv, tol) {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("stream %s: %.0f -> %.0f (%+.0f%%, tolerance %.0f%%)", name, ov, nv, pct(ov, nv), tol*100))
		}
		fmt.Printf("%-5s %-28s %10.0f %10.0f %+7.0f%%%s\n", "strm", name, ov, nv, pct(ov, nv), mark)
	}
	row("ops_per_sec", o.OpsPerSec, n.OpsPerSec, false)
	row("peak_heap_bytes", o.PeakHeapBytes, n.PeakHeapBytes, true)
	row("allocs_per_op", o.AllocsPerOp, n.AllocsPerOp, true)
	regressions = append(regressions, compareStreamCheck("check_seq", o.CheckSeq, n.CheckSeq, tol)...)
	regressions = append(regressions, compareStreamCheck("check_sharded", o.CheckSharded, n.CheckSharded, tol)...)
	regressions = append(regressions, compareStreamCheck("check_approx", o.CheckApprox, n.CheckApprox, tol)...)
	return regressions
}

// compareStreamCheck diffs one checker-throughput sub-section: ops/s
// gates downward, peak heap upward, and a sub-section that stopped
// passing — or vanished from the candidate while the baseline has it — is
// a regression. Sub-sections from different configurations (shard count,
// ε, register count, op count) only warn: the delta would measure the
// configuration change.
func compareStreamCheck(name string, o, n *jsonStreamCheck, tol float64) []string {
	if o == nil || n == nil {
		if o != nil {
			return []string{fmt.Sprintf("stream %s: baseline has this sub-section but the new report omits it", name)}
		}
		if n != nil {
			fmt.Fprintf(os.Stderr, "pscbench: note: stream %s sub-section is new in this report; no baseline to compare\n", name)
		}
		return nil
	}
	if o.Shards != n.Shards || o.ApproxEpsUS != n.ApproxEpsUS || o.Registers != n.Registers || o.Ops != n.Ops {
		fmt.Fprintf(os.Stderr, "pscbench: warning: stream %s sub-sections ran different configurations (%d shards/ε=%.0fus/%d regs/%d ops vs %d/%.0f/%d/%d); deltas not compared\n",
			name, o.Shards, o.ApproxEpsUS, o.Registers, o.Ops, n.Shards, n.ApproxEpsUS, n.Registers, n.Ops)
		return nil
	}
	var regressions []string
	row := func(metric string, ov, nv float64, gate bool) {
		mark := ""
		if gate && ov > 0 && regressed(metric, ov, nv, tol) {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("stream %s %s: %.0f -> %.0f (%+.0f%%, tolerance %.0f%%)", name, metric, ov, nv, pct(ov, nv), tol*100))
		}
		fmt.Printf("%-5s %-28s %10.0f %10.0f %+7.0f%%%s\n", "strm", name+"."+metric, ov, nv, pct(ov, nv), mark)
	}
	row("ops_per_sec", o.OpsPerSec, n.OpsPerSec, true)
	row("peak_heap_bytes", o.PeakHeapBytes, n.PeakHeapBytes, true)
	if o.Pass && !n.Pass {
		regressions = append(regressions, fmt.Sprintf("stream %s: previously passed its gates, new run did not", name))
	}
	return regressions
}

// compareLive diffs the pscserve live sections: throughput must not drop
// beyond tol, latency percentiles print informationally (wall-clock
// latency on a shared host is too noisy to gate), and a run that stopped
// passing its online check is always a regression. Sections from
// different configurations (topology, clock or transport adversary, or
// load shape) only warn, like mismatched settings: the delta would
// measure the configuration change. A missing candidate section is only
// a note here, unlike the stream sub-sections: pscbench cannot produce
// live results itself (pscserve -json refreshes them), so every compare
// run would otherwise fail.
func compareLive(old, cur jsonReport, tol float64) []string {
	var regressions []string
	regressions = append(regressions, compareLiveSection("live", old.Live, cur.Live, tol)...)
	regressions = append(regressions, compareLiveSection("live_closed", old.LiveClosed, cur.LiveClosed, tol)...)
	regressions = append(regressions, compareLiveSection("live_tiered", old.LiveTiered, cur.LiveTiered, tol)...)
	return regressions
}

// bothSections handles a live* section one of the reports lacks. pscbench
// cannot produce these sections itself (tool -json refreshes them), so a
// missing side is a note, never a regression; it reports whether both are
// there to compare.
func bothSections(section, tool string, old, cur bool) bool {
	if old && !cur {
		fmt.Fprintf(os.Stderr, "pscbench: note: baseline has a %s section; this run has none to compare (%s -json refreshes it)\n", section, tool)
	}
	if cur && !old {
		fmt.Fprintf(os.Stderr, "pscbench: note: %s section is new in this report; no baseline to compare\n", section)
	}
	return old && cur
}

// liveRow prints one old/new row of a live* section and returns the
// regression, if the metric is gated and dropped beyond tol.
func liveRow(section, name string, ov, nv, tol float64, gate bool) []string {
	var regs []string
	mark := ""
	if gate && ov > 0 && regressed(name, ov, nv, tol) {
		mark = "  REGRESSION"
		regs = []string{fmt.Sprintf("%s %s: %.0f -> %.0f (%+.0f%%, tolerance %.0f%%)", section, name, ov, nv, pct(ov, nv), tol*100)}
	}
	fmt.Printf("%-11s %-28s %10.0f %10.0f %+7.0f%%%s\n", section, name, ov, nv, pct(ov, nv), mark)
	return regs
}

// compareCore applies what every live* section is held to, on the report
// core pscserve's and pscfleet's reports share: throughput gated, latency
// percentiles informational, a verdict that stopped passing, and recorder
// drops appearing.
func compareCore(section string, o, n *live.ReportCore, tol float64) []string {
	warnSectionProcs(section, o.GOMAXPROCS, n.GOMAXPROCS)
	regressions := liveRow(section, "ops_per_sec", o.OpsPerSec, n.OpsPerSec, tol, true)
	liveRow(section, "read_p50_us", o.ReadP50US, n.ReadP50US, tol, false)
	liveRow(section, "read_p99_us", o.ReadP99US, n.ReadP99US, tol, false)
	liveRow(section, "write_p50_us", o.WriteP50US, n.WriteP50US, tol, false)
	liveRow(section, "write_p99_us", o.WriteP99US, n.WriteP99US, tol, false)
	if o.Pass && !n.Pass {
		regressions = append(regressions, section+": previous run passed its gates, new run did not")
	}
	if o.RecorderDrops == 0 && n.RecorderDrops > 0 {
		regressions = append(regressions, fmt.Sprintf("%s: recorder dropped %d events (baseline dropped none)", section, n.RecorderDrops))
	}
	return regressions
}

// compareLiveSection diffs one pscserve section (the pipelined "live"
// headline or the closed-loop "live_closed" baseline) under compareLive's
// rules.
func compareLiveSection(section string, o, n *live.Report, tol float64) []string {
	if !bothSections(section, "pscserve", o != nil, n != nil) {
		return nil
	}
	if o.Nodes != n.Nodes || o.Clients != n.Clients || o.Clock != n.Clock || o.Transport != n.Transport ||
		o.Registers != n.Registers || o.Pipeline != n.Pipeline || o.Tiers != n.Tiers {
		fmt.Fprintf(os.Stderr, "pscbench: warning: %s sections ran different configurations (%d nodes/%d clients/%dr/%dp/%s/%s/tiers=%q vs %d/%d/%dr/%dp/%s/%s/tiers=%q); deltas not compared\n",
			section, o.Nodes, o.Clients, o.Registers, o.Pipeline, o.Clock, o.Transport, o.Tiers,
			n.Nodes, n.Clients, n.Registers, n.Pipeline, n.Clock, n.Transport, n.Tiers)
		return nil
	}
	regressions := compareCore(section, &o.ReportCore, &n.ReportCore, tol)
	if n.Tiers != "" {
		// Tiered runs additionally gate the seq tier's measured read
		// discount: algorithm L's reads must stay at least ε cheaper than
		// algorithm S's (the theoretical gap is 2ε; gating at ε absorbs
		// wall-clock noise). A discount that collapsed means the seq tier
		// stopped delivering the cheaper reads that justify its weaker
		// consistency.
		liveRow(section, "read_discount_us", o.ReadDiscountUS, n.ReadDiscountUS, tol, false)
		if n.ReadDiscountUS < n.EpsConfigUS {
			regressions = append(regressions,
				fmt.Sprintf("%s: seq-tier read discount %.0fus below ε=%.0fus (theoretical gap 2ε=%.0fus)",
					section, n.ReadDiscountUS, n.EpsConfigUS, 2*n.EpsConfigUS))
		}
		for _, tr := range []struct {
			name string
			rep  *live.TierReport
		}{{"tier_lin", n.TierLin}, {"tier_seq", n.TierSeq}} {
			if tr.rep != nil && tr.rep.Violations > 0 {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s reported %d online-check violations", section, tr.name, tr.rep.Violations))
			}
		}
	}
	return regressions
}

// compareFleet diffs the pscfleet multi-process chaos section under the
// same ground rules as compareLive: pscbench cannot produce it (pscfleet
// -json refreshes it), so a missing candidate is a note, not a failure,
// and sections from different fleet configurations or chaos scripts only
// warn — the delta would measure the configuration change, not a
// regression. Within a matched pair the gates are compareCore's, plus any
// unexplained checker violation and any chaos fault whose observed outcome
// stopped matching its scripted expectation — those two are correctness
// gates, so they fire on the candidate alone, not just on a transition.
func compareFleet(o, n *fleet.Report, tol float64) []string {
	if !bothSections("live_fleet", "pscfleet", o != nil, n != nil) {
		return nil
	}
	if o.Nodes != n.Nodes || o.Registers != n.Registers || o.Clients != n.Clients ||
		o.Clock != n.Clock || o.Tiers != n.Tiers || o.Seed != n.Seed || o.ChaosScript != n.ChaosScript {
		fmt.Fprintf(os.Stderr, "pscbench: warning: live_fleet sections ran different configurations (%d nodes/%dr/%dc/%s/seed %d/%q vs %d/%dr/%dc/%s/seed %d/%q); deltas not compared\n",
			o.Nodes, o.Registers, o.Clients, o.Clock, o.Seed, o.ChaosScript,
			n.Nodes, n.Registers, n.Clients, n.Clock, n.Seed, n.ChaosScript)
		return nil
	}
	regressions := compareCore("live_fleet", &o.ReportCore, &n.ReportCore, tol)
	if n.UnexplainedViolations > 0 {
		regressions = append(regressions, fmt.Sprintf("live_fleet: %d checker violations not explained by any injected fault", n.UnexplainedViolations))
	}
	if n.ChaosMismatches > 0 {
		for _, c := range n.Chaos {
			if c.Match {
				continue
			}
			regressions = append(regressions,
				fmt.Sprintf("live_fleet: %s@%dms on node %d expected %s, observed %s (%s)",
					c.Kind, c.AtMS, c.Target, c.Expected, c.Observed, c.Evidence))
		}
	}
	return regressions
}

// warnSectionProcs warns when a section's recorded GOMAXPROCS differs
// between reports: per-section throughput deltas would measure the
// parallelism change. Sections written before the field existed record 0
// and are skipped — there is nothing to compare against.
func warnSectionProcs(section string, o, n int) {
	if o != 0 && n != 0 && o != n {
		fmt.Fprintf(os.Stderr, "pscbench: warning: %s sections ran under different GOMAXPROCS (%d vs %d) — throughput deltas reflect the parallelism change\n", section, o, n)
	}
}

// compareShardScaling diffs the -shardsweep sections. The scaling curve's
// absolute ops/s are too host-sensitive to gate; what gates is the shape:
// a cell that beat sequential in the baseline (speedup ≥ 1.0×) falling
// below 1.0× is a regression — the adaptive-horizon executor's contract
// is that wins, once won, stay won. Cells are matched by their full
// configuration (model, n, shards, procs); a baseline section the
// candidate run dropped is a regression, as with the stream section.
func compareShardScaling(old, cur jsonReport) []string {
	if old.ShardScaling == nil || cur.ShardScaling == nil {
		if old.ShardScaling != nil {
			return []string{"shard_scaling: baseline has a -shardsweep section but the new report omits it (run with -shardsweep to compare)"}
		}
		if cur.ShardScaling != nil {
			fmt.Fprintln(os.Stderr, "pscbench: note: shard_scaling section is new in this report; no baseline to compare")
		}
		return nil
	}
	o, n := old.ShardScaling, cur.ShardScaling
	warnSectionProcs("shard_scaling", o.GOMAXPROCS, n.GOMAXPROCS)
	if o.NumCPU != n.NumCPU {
		fmt.Fprintf(os.Stderr, "pscbench: warning: shard_scaling sections measured on different core counts (%d vs %d CPU); speedup deltas reflect the host change\n", o.NumCPU, n.NumCPU)
	}
	type cellKey struct {
		model            string
		n, shards, procs int
	}
	byKey := make(map[cellKey]float64, len(o.Cells))
	for _, c := range o.Cells {
		byKey[cellKey{c.Model, c.N, c.Shards, c.Procs}] = c.SpeedupVsSeq
	}
	var regressions []string
	for _, c := range n.Cells {
		os_, ok := byKey[cellKey{c.Model, c.N, c.Shards, c.Procs}]
		if !ok {
			continue
		}
		mark := ""
		if os_ >= 1.0 && c.SpeedupVsSeq < 1.0 {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("shard_scaling %s n=%d shards=%d procs=%d: speedup %.2fx -> %.2fx (previously beat sequential, now does not)",
					c.Model, c.N, c.Shards, c.Procs, os_, c.SpeedupVsSeq))
		}
		fmt.Printf("%-5s %-28s %9.2fx %9.2fx %+7.0f%%%s\n", "shrd",
			fmt.Sprintf("%s.s%d.p%d speedup", c.Model, c.Shards, c.Procs), os_, c.SpeedupVsSeq, pct(os_, c.SpeedupVsSeq), mark)
	}
	if o.Pass && !n.Pass {
		regressions = append(regressions, "shard_scaling: previously passed its win gate, new run did not")
	}
	return regressions
}

func pct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}
