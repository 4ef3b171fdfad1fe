package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"psclock/internal/live"
)

func TestList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("code = %d", code)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if code := run([]string{"-run", "E99"}); code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-bogus"}); code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
}

func TestRunOneExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	if code := run([]string{"-run", "E1"}); code != 0 {
		t.Errorf("E1 failed: code = %d", code)
	}
}

func TestParallelSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	if code := run([]string{"-parallel=2", "-run", "E1,E2"}); code != 0 {
		t.Errorf("code = %d", code)
	}
}

// writeReport marshals a fabricated baseline for -compare tests.
func writeReport(t *testing.T, path string, rep jsonReport) {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMissingBaseline(t *testing.T) {
	if code := run([]string{"-compare", filepath.Join(t.TempDir(), "nope.json"), "-run", "E1"}); code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
}

// TestCompareDetectsRegression runs E1 against a fabricated baseline whose
// numbers the real run cannot match: a huge E1 ops/sec metric must trip
// the ops gate, while a tiny sub-threshold wall time must not trip the
// wall gate (it is below the noise floor).
func TestCompareDetectsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	base := filepath.Join(t.TempDir(), "old.json")
	writeReport(t, base, jsonReport{Experiments: []jsonResult{{
		ID: "E1", WallMS: 0.001,
		Metrics: map[string]float64{"ops_per_sec_fabricated": 1e15},
	}}})
	if code := run([]string{"-compare", base, "-run", "E1"}); code != 1 {
		t.Errorf("fabricated ops/sec baseline not flagged: code = %d, want 1", code)
	}
}

// TestCompareCleanPass compares E1 against a baseline it can only improve
// on: zero metrics and a generous wall time.
func TestCompareCleanPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	base := filepath.Join(t.TempDir(), "old.json")
	writeReport(t, base, jsonReport{Experiments: []jsonResult{{ID: "E1", WallMS: 60_000}}})
	if code := run([]string{"-compare", base, "-run", "E1"}); code != 0 {
		t.Errorf("code = %d, want 0", code)
	}
}

// TestStreamSmoke runs the -stream measurement at a small operation count
// and checks the recorded memory fields land in the JSON report.
func TestStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a streaming workload")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if code := run([]string{"-stream", "-streamops", "3000", "-json", "-run", "E1"}); code != 0 {
		t.Fatalf("code = %d", code)
	}
	buf, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stream == nil {
		t.Fatal("report has no stream section")
	}
	if !rep.Stream.Pass || rep.Stream.Ops < 3000 || rep.Stream.PeakHeapBytes <= 0 || rep.Stream.AllocsPerOp <= 0 {
		t.Errorf("stream section incomplete: %+v", rep.Stream)
	}
	if rep.Stream.RetainedPeakHeapBytes <= rep.Stream.PeakHeapBytes {
		t.Errorf("retained baseline heap %.0f not above streaming %.0f",
			rep.Stream.RetainedPeakHeapBytes, rep.Stream.PeakHeapBytes)
	}
}

// TestCompareGatesMemoryGrowth fabricates a baseline whose memory numbers
// the real run must exceed: memory metrics gate upward, so impossible
// tiny baselines trip the gate while huge ones pass.
func TestCompareGatesMemoryGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	base := filepath.Join(t.TempDir(), "old.json")
	writeReport(t, base, jsonReport{Experiments: []jsonResult{{
		ID: "E1", WallMS: 60_000,
		Metrics: map[string]float64{"peak_heap_bytes_fabricated": 1}, // any real heap is a >20% growth
	}}})
	// E1 records no peak_heap metrics, so a fabricated baseline key must
	// trip the metric-missing gate rather than pass silently.
	if code := run([]string{"-compare", base, "-run", "E1"}); code != 1 {
		t.Errorf("vanished memory metric not flagged: code = %d, want 1", code)
	}
	writeReport(t, base, jsonReport{
		Stream:      &jsonStream{Ops: 3000, PeakHeapBytes: 1, AllocsPerOp: 0.0001},
		Experiments: []jsonResult{{ID: "E1", WallMS: 60_000}},
	})
	if code := run([]string{"-compare", base, "-stream", "-streamops", "3000", "-run", "E1"}); code != 1 {
		t.Errorf("streaming memory growth not flagged: code = %d, want 1", code)
	}
}

// TestDenseOracleRun smokes the -dense flag: the differential-oracle
// executors must still pass an experiment end to end.
func TestDenseOracleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	if code := run([]string{"-dense", "-run", "E2"}); code != 0 {
		t.Errorf("code = %d, want 0", code)
	}
}

func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if code := run([]string{"-json", "-run", "E1"}); code != 0 {
		t.Fatalf("code = %d", code)
	}
	buf, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "E1" || !rep.Experiments[0].Pass {
		t.Errorf("unexpected report: %+v", rep)
	}
	if rep.Experiments[0].WallMS <= 0 || rep.TotalWallMS <= 0 {
		t.Errorf("missing wall times: %+v", rep)
	}
}

// TestCompareLive exercises the live-section gate directly: a throughput
// drop beyond tolerance and a pass-to-fail flip regress, a configuration
// mismatch only warns, and latency growth is informational.
func TestCompareLive(t *testing.T) {
	mk := func(ops float64, pass bool) jsonReport {
		return jsonReport{Live: &live.Report{
			ReportCore: live.ReportCore{
				Nodes: 3, Clients: 3, Clock: "jitter",
				OpsPerSec: ops, ReadP99US: 1000, Pass: pass,
			},
			Transport: "tcp",
		}}
	}
	if regs := compareLive(mk(1000, true), mk(950, true), 0.2); len(regs) != 0 {
		t.Errorf("5%% throughput drop within tolerance flagged: %v", regs)
	}
	if regs := compareLive(mk(1000, true), mk(500, true), 0.2); len(regs) != 1 {
		t.Errorf("50%% throughput drop: got %v, want one regression", regs)
	}
	if regs := compareLive(mk(1000, true), mk(1000, false), 0.2); len(regs) != 1 {
		t.Errorf("pass->fail flip: got %v, want one regression", regs)
	}
	other := mk(10, true)
	other.Live.Transport = "chan"
	if regs := compareLive(mk(1000, true), other, 0.2); len(regs) != 0 {
		t.Errorf("cross-configuration sections compared: %v", regs)
	}
	if regs := compareLive(jsonReport{}, mk(1000, true), 0.2); len(regs) != 0 {
		t.Errorf("missing baseline section compared: %v", regs)
	}
	// A live baseline with no candidate is a note, never a regression:
	// pscbench cannot produce live results, so every compare run omits it.
	if regs := compareLive(mk(1000, true), jsonReport{}, 0.2); len(regs) != 0 {
		t.Errorf("missing candidate live section gated: %v", regs)
	}
}

// TestCompareStreamOmission pins the vanished-section gates: a baseline
// -stream section (or checker sub-section) the candidate run dropped is a
// regression — a silently missing section is indistinguishable from a
// gate that stopped running — while candidate-only sections are new
// coverage, and mismatched sub-section configurations warn instead of
// diffing.
func TestCompareStreamOmission(t *testing.T) {
	withStream := jsonReport{Stream: &jsonStream{Ops: 1000, OpsPerSec: 50000, Pass: true}}
	if regs := compareStream(withStream, jsonReport{}, 0.2); len(regs) != 1 {
		t.Errorf("dropped -stream section: got %v, want one regression", regs)
	}
	if regs := compareStream(jsonReport{}, withStream, 0.2); len(regs) != 0 {
		t.Errorf("new -stream section gated: %v", regs)
	}
	chk := &jsonStreamCheck{Shards: 4, Registers: 4, Ops: 1000, OpsPerSec: 9000, Verdict: "linearizable", Pass: true}
	if regs := compareStreamCheck("check_sharded", chk, nil, 0.2); len(regs) != 1 {
		t.Errorf("dropped checker sub-section: got %v, want one regression", regs)
	}
	if regs := compareStreamCheck("check_sharded", nil, chk, 0.2); len(regs) != 0 {
		t.Errorf("new checker sub-section gated: %v", regs)
	}
	slower := *chk
	slower.OpsPerSec = 4000
	if regs := compareStreamCheck("check_sharded", chk, &slower, 0.2); len(regs) != 1 {
		t.Errorf("checker throughput drop: got %v, want one regression", regs)
	}
	failing := *chk
	failing.Pass = false
	if regs := compareStreamCheck("check_sharded", chk, &failing, 0.2); len(regs) != 1 {
		t.Errorf("checker pass->fail flip: got %v, want one regression", regs)
	}
	otherCfg := *chk
	otherCfg.Shards = 8
	otherCfg.OpsPerSec = 1
	if regs := compareStreamCheck("check_sharded", chk, &otherCfg, 0.2); len(regs) != 0 {
		t.Errorf("cross-configuration sub-sections compared: %v", regs)
	}
}
