package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psclock/internal/live"
)

// smokeArgs is the in-process version of the CI smoke job: a short
// serve-and-load cycle over real TCP with jittered clocks.
var smokeArgs = []string{
	"-duration", "400ms", "-rate", "120", "-nodes", "3",
	"-clock", "jitter", "-slack", "3ms", "-seed", "7",
}

// readReport decodes the -json document at path. The file must be the
// report and nothing else: unknown keys (a sibling section, say) fail.
func readReport(t *testing.T, path string) (live.Report, map[string]json.RawMessage) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep live.Report
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s is not a bare live.Report: %v\n%s", path, err, buf)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	return rep, keys
}

// TestRunSmoke must pass the online check, exit zero, and write its report
// as one standalone JSON document.
func TestRunSmoke(t *testing.T) {
	var out, errb strings.Builder
	path := filepath.Join(t.TempDir(), "run.json")
	code := run(append([]string{"-json", path}, smokeArgs...), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS: online linearizability held") {
		t.Fatalf("no PASS line in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 client errors") {
		t.Fatalf("client errors in output:\n%s", out.String())
	}
	rep, keys := readReport(t, path)
	for _, k := range []string{"pass", "ops_per_sec", "eps_measured_us", "envelope", "timer_late_p50_us", "timer_late_p99_us"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report has no top-level %q key", k)
		}
	}
	if rep.Transport != "tcp" || !strings.Contains(out.String(), "model envelope "+rep.Envelope) {
		t.Errorf("transport %q, envelope %q; stdout:\n%s", rep.Transport, rep.Envelope, out.String())
	}
	if !rep.Pass || rep.OpsPerSec <= 0 || rep.Ops == 0 {
		t.Errorf("report disagrees with the PASS on stdout: %+v", rep.ReportCore)
	}
}

// TestRunBelowMinOps pins one verdict: a run under its -minops floor fails
// on stdout, in the JSON and in the exit status alike.
func TestRunBelowMinOps(t *testing.T) {
	var out, errb strings.Builder
	path := filepath.Join(t.TempDir(), "run.json")
	code := run(append([]string{"-json", path, "-minops", "1000000"}, smokeArgs...), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "PASS:") {
		t.Errorf("PASS printed for a run below its floor:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "below the -minops floor") {
		t.Errorf("no floor FAIL line:\n%s", out.String())
	}
	if rep, _ := readReport(t, path); rep.Pass {
		t.Error(`report says "pass": true for a run that exits 1`)
	}
}

// TestRunBadFlags checks usage errors exit 2 without starting a runtime.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clock", "atomic"},
		{"-tiers", "lin,seq"},
		{"-eps", "-1ms"},
		{"-approx", "-1ms"},
		{"-d1", "6ms"}, // above the default d2
		{"-c", "10ms"}, // above d'2 − 2ε
		// Retired: the binary always serves over TCP, Θ and the ring depth
		// come from the model, the zipf offset from the register count, and
		// the zero-widening twin gated nothing.
		{"-transport", "tcp"},
		{"-theta", "1ms"},
		{"-ring", "64"},
		{"-zipfv", "2"},
		{"-strict", "off"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr:\n%s", args, code, errb.String())
		}
	}
}
