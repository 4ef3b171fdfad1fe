package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestCalibrate(t *testing.T) {
	// 30 ms for 1000 units after a 15 ms spin is 30 µs/unit as measured
	// and 20 µs/unit on the 10 ms reference host.
	if got := calibrate(30e6, 15e6, 1000); !near(got, 20e3) {
		t.Errorf("calibrate = %v, want 20000", got)
	}
	if got := calibrate(30e6, 0, 1000); got != 0 {
		t.Errorf("calibrate with no spin = %v, want 0", got)
	}
	var c calSeries
	for i, ms := range []int{40, 20, 30, 50, 10} {
		cpu := time.Duration(ms) * time.Millisecond
		c.add(sliceTime{wall: 2 * cpu, cpu: cpu, spun: time.Duration(5*(i+1)) * time.Millisecond}, 1000)
	}
	c.add(sliceTime{wall: time.Second, cpu: time.Second, spun: time.Millisecond}, 0) // no work: not a sample
	if len(c.raw) != 5 || len(c.cal) != 5 {
		t.Fatalf("series holds %d raw and %d calibrated slices, want 5 and 5", len(c.raw), len(c.cal))
	}
	if got := c.rawNS(); !near(got, 60e3) {
		t.Errorf("raw wall median = %v, want 60000", got)
	}
	// Calibrated: 80, 20, 20, 25, 4 µs/unit; lower quartile of 4 20 20 25 80.
	if got := c.calNS(); !near(got, 20e3) {
		t.Errorf("calibrated lower quartile = %v, want 20000", got)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.6, 5.8}, {1, 9}} {
		if got := quantile(vs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.31, 1.29, 1.35, 1.30, 1.33, 1.28, 1.32}, [3]float64{1.29, 1.31, 1.33}},
	} {
		got := quartiles(c.vs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
				break
			}
		}
	}
}

func TestAgreeIsSymmetric(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		want bool
	}{{100, 108, true}, {108, 100, true}, {100, 111, false}, {111, 100, false}, {100, 100, true}} {
		if got := agree(c.a, c.b, 0.10); got != c.want {
			t.Errorf("agree(%v, %v, 10%%) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1000); v <= 100_000; v += 1000 {
		h.add(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50_000}, {0.99, 99_000}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.03 {
			t.Errorf("hist quantile(%v) = %v, want %v within 3%%", c.q, got, c.want)
		}
	}
	var nilHist *hist
	nilHist.add(5)
	if got := nilHist.quantile(0.5); got != 0 {
		t.Errorf("nil hist quantile = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	var off *tracer
	off.finish(off.start(0, "ignored"))
	if off.hist("x") != nil {
		t.Error("a nil tracer handed out a histogram")
	}
}

func event(name string, kind ta.Kind, port ta.NodeID, at simtime.Time) ta.Event {
	return ta.Event{Action: ta.Action{Name: name, Node: port, Peer: ta.NoNode, Kind: kind}, At: at}
}

func TestPairerMatchesPerPort(t *testing.T) {
	p := newPairer()
	type done struct {
		read bool
		svc  simtime.Duration
	}
	var got []done
	for _, e := range []ta.Event{
		event(register.ActAck, ta.KindOutput, 2, 5), // answers an invocation from before the sink: skipped
		event(register.ActRead, ta.KindInput, 0, 10),
		event(register.ActWrite, ta.KindInput, 1, 12),
		event(register.ActRead, ta.KindInternal, 0, 13), // hidden: not an invocation
		event("UPDATE", ta.KindOutput, 0, 14),           // not a register response
		event(register.ActReturn, ta.KindOutput, 0, 25),
		event(register.ActAck, ta.KindOutput, 1, 112),
		event(register.ActRead, ta.KindInput, 0, 200), // port 0 again
		event(register.ActReturn, ta.KindOutput, 0, 207),
	} {
		if read, svc, ok := p.observe(e); ok {
			got = append(got, done{read, svc})
		}
	}
	want := []done{{true, 15}, {false, 100}, {true, 7}}
	if len(got) != len(want) {
		t.Fatalf("paired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(p.open) != 0 {
		t.Errorf("%d ports left open", len(p.open))
	}
}

// fixedHistory drives a checker with a two-register history whose second
// register reads a value that was overwritten before the read began.
func fixedHistory(c linearize.Checker) linearize.Result {
	op := func(node ta.NodeID, kind linearize.Kind, value string, inv, res simtime.Time) linearize.Op {
		return linearize.Op{Node: node, Kind: kind, Value: value, Inv: inv, Res: res}
	}
	v0 := register.Initial.String()
	for _, step := range []struct {
		key string
		op  linearize.Op
	}{
		{"a", op(0, linearize.Write, "0.1", 0, 10)},
		{"b", op(3, linearize.Write, "3.1", 2, 12)},
		{"a", op(1, linearize.Read, "0.1", 20, 30)},
		{"b", op(4, linearize.Write, "4.1", 20, 30)},
		{"a", op(2, linearize.Read, v0, 5, 8)},
		{"b", op(5, linearize.Read, "3.1", 40, 50)}, // stale: 4.1 overwrote it by 30
	} {
		c.Begin(step.key, step.op.Node, step.op.Inv)
		c.Add(step.key, step.op)
	}
	c.Advance(60)
	return c.Finish()
}

func TestTimedCheckerPassesThrough(t *testing.T) {
	opts := linearize.ShardedOptions{Check: linearize.Options{Initial: register.Initial.String()}}
	plain := fixedHistory(linearize.NewSharded(opts))
	timed := &timedChecker{inner: linearize.NewSharded(opts)}
	decorated := fixedHistory(timed)
	if plain.OK {
		t.Fatal("the fixed history should not be linearizable")
	}
	if decorated != plain {
		t.Errorf("decorated checker returned %+v, undecorated %+v", decorated, plain)
	}
	if timed.ops != 6 {
		t.Errorf("decorator counted %d ops, want 6", timed.ops)
	}
}

func TestOffered(t *testing.T) {
	// Open loop: the schedule alone.
	if got := offered(2, 6000, 0.1, true, liveReadFloor, liveWriteFloor, 10*time.Second); !near(got, 120_000) {
		t.Errorf("open-loop offered = %v, want 120000", got)
	}
	// Closed loop at 250/s: a 0.5 ms read leaves the 4 ms pace in charge, a
	// 5.4 ms write does not, so a cycle is 0.8·4 + 0.2·5.4 = 4.28 ms.
	if got, want := offered(2, 250, 0.2, false, liveReadFloor, liveWriteFloor, 10*time.Second), 2*10/4.28e-3; !near(got, want) {
		t.Errorf("closed-loop offered = %v, want %v", got, want)
	}
}

// A gated run reports the workload's own figures under the three gated
// costs, in µs whatever their unit, and fails its checks if one is missing.
func TestGatesCarryNativeFigures(t *testing.T) {
	wl, _ := findWorkload("fleet_crash")
	e := &env{workload: wl, traced: true} // traced: common writes no file
	r := newResult()
	r.set("live.client.read_p50_us", 5500)
	r.set("live.client.write_p50_us", 14700)
	r.set("fleet.recovery_ms", 677.5)
	e.common(r)
	for name, want := range map[string]float64{"cost_a_us": 5500, "cost_b_us": 14700, "cost_c_us": 677500} {
		if !near(r.m[name], want) {
			t.Errorf("%s = %v, want %v", name, r.m[name], want)
		}
	}
	if len(r.problems) != 0 {
		t.Errorf("complete gates failed checks: %v", r.problems)
	}
	wl, _ = findWorkload("sim_models")
	e.workload = wl
	r = newResult()
	r.set("exec.timed_cal_ns_per_event", 490)
	r.set("exec.clock_cal_ns_per_event", 625)
	e.common(r)
	if !near(r.m["cost_a_us"], 0.49) || !near(r.m["cost_b_us"], 0.625) {
		t.Errorf("ns figures gated as %v and %v µs, want 0.49 and 0.625", r.m["cost_a_us"], r.m["cost_b_us"])
	}
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "exec.mmt_cal_ns_per_event") {
		t.Errorf("a missing gate gave checks %v, want one naming exec.mmt_cal_ns_per_event", r.problems)
	}
	if got := wl.label("cost_b_us"); got != "cost_b_us = exec.clock_cal_ns_per_event" {
		t.Errorf("label = %q", got)
	}
}

func TestReportKeys(t *testing.T) {
	r := newResult()
	r.attempted = 10
	r.set("setup_s", 2.0)
	r.set("exec.timed_events", 7)
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := r.report(&buf, traced); err != nil {
			t.Fatal(err)
		}
		run, err := parseChild(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(run.line.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics in the line, want %d", traced, len(run.line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := run.line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s is %+v (present %v), want unit %s", traced, d.Name, m, ok, d.Unit)
			}
		}
		if !run.line.Correct || run.line.Attempted != 10 || run.line.Failed != 0 {
			t.Errorf("line = %+v, want correct, 10 attempted, 0 failed", run.line)
		}
		if run.all["exec.timed_events"] != 7 || run.all["setup_s"] != 2 {
			t.Errorf("printed metrics read back as %v", run.all)
		}
	}
	r.fail("broken")
	var buf bytes.Buffer
	if err := r.report(&buf, false); err != nil {
		t.Fatal(err)
	}
	run, err := parseChild(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if run.line.Correct || run.line.Failed != run.line.Attempted {
		t.Errorf("a failed check gave %+v, want not correct and every op failed", run.line)
	}
	r.set("no.such_metric", 1)
	if err := r.report(&buf, false); err == nil {
		t.Error("a metric outside the table was reported")
	}
}

// BENCHMARK.json at the repository root must list exactly this harness's
// workloads and metrics.
func TestManifestMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash bench/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 10 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, harness %+v", i, doc.Workloads[i], w)
		}
		if w.run == nil || w.box <= 0 {
			t.Errorf("workload %s has no runner or no set-up box", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the manifest allows 200", w.Name, len(w.Why))
		}
		for _, native := range append(w.Gates[:], w.overhead) {
			if _, timed := toMicros[unitOf(native)]; !timed || !strings.Contains(native, ".") {
				t.Errorf("workload %s gates %q, which is not a per-layer time", w.Name, native)
			}
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d+%d metrics, harness has %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, harness %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, harness %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", d.Name)
		}
	}
}
