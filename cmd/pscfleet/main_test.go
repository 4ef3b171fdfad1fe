package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"psclock/internal/fleet"
	"psclock/internal/live"
	"psclock/internal/simtime"
)

// fabricated builds report inputs for a run that saw one checker violation
// under the given chaos outcomes. The stats come from a real (never
// started) plane configured as a default run is — no -detperiod, no
// -dettimeout — so the detector pair is the one NewPlane derives.
func fabricated(t *testing.T, outcomes ...fleet.ChaosOutcome) reportInputs {
	t.Helper()
	const ms = simtime.Millisecond
	plane, err := fleet.NewPlane(fleet.PlaneConfig{N: 3, Registers: 2, Eps: 2 * ms, D2: 10 * ms, Delta: ms, Ell: 5 * ms})
	if err != nil {
		t.Fatal(err)
	}
	stats := plane.Stats()
	// Every omitempty key of the core gets a nonzero value, so a key that
	// is absent from the document is a key that was dropped.
	stats.Reconnects = 1
	return reportInputs{
		nodes: 3, registers: 2, tiersSpec: "lin:seq", clients: 3, seed: 1,
		wall: time.Second, model: fleet.DefaultModel(), checkShards: 2,
		outcomes: outcomes,
		res:      live.LoadResult{Ops: 10, Reads: 5, Writes: 5},
		stats:    stats,
		verdict:  fleet.FleetVerdict{Violations: 1},
	}
}

// TestBuildReportDocument pins what pscfleet -json writes: a bare
// fleet.Report carrying every key of the shared live core, with the
// detector's effective period and timeout rather than the zero flags.
func TestBuildReportDocument(t *testing.T) {
	buf, err := json.Marshal(buildReport(fabricated(t)))
	if err != nil {
		t.Fatal(err)
	}
	var rep fleet.Report
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("document is not a bare fleet.Report: %v\n%s", err, buf)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	core := reflect.TypeOf(live.ReportCore{})
	for i := 0; i < core.NumField(); i++ {
		name, _, _ := strings.Cut(core.Field(i).Tag.Get("json"), ",")
		if _, ok := keys[name]; !ok {
			t.Errorf("live.ReportCore key %q missing from the fleet report", name)
		}
	}
	if rep.DetPeriodUS <= 0 || rep.DetTimeoutUS <= rep.DetPeriodUS {
		t.Errorf("det_period_us = %v, det_timeout_us = %v: want the derived pair, timeout above period",
			rep.DetPeriodUS, rep.DetTimeoutUS)
	}
}

// TestBuildReportExplainsOnlyLossyFaults: a crash (or partition) loses
// messages outside the delivery model, so it explains checker violations;
// a clock step loses nothing, so the same violation fails the run.
func TestBuildReportExplainsOnlyLossyFaults(t *testing.T) {
	for _, tc := range []struct {
		kind      fleet.FaultKind
		explained int
	}{{fleet.FaultCrash, 1}, {fleet.FaultPartition, 1}, {fleet.FaultClockStep, 0}, {fleet.FaultDelay, 0}} {
		rep := buildReport(fabricated(t, fleet.ChaosOutcome{Kind: string(tc.kind), Match: true}))
		if rep.ExplainedViolations != tc.explained || rep.UnexplainedViolations != 1-tc.explained {
			t.Errorf("%s: explained=%d unexplained=%d, want %d/%d", tc.kind,
				rep.ExplainedViolations, rep.UnexplainedViolations, tc.explained, 1-tc.explained)
		}
		if rep.Pass != (tc.explained == 1) {
			t.Errorf("%s: pass = %v", tc.kind, rep.Pass)
		}
	}
}

// TestRunBadModelFlag: a bad model parameter is a usage error run returns,
// not an exit from inside it.
func TestRunBadModelFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-eps", "-1ms"}, &out, &errb); code != 2 {
		t.Fatalf("-eps -1ms: exit %d, want 2\nstderr:\n%s", code, errb.String())
	}
}
