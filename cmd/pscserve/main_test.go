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
	for _, k := range []string{"pass", "ops_per_sec", "eps_measured_us"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report has no top-level %q key", k)
		}
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

// TestRunChanTransport covers the in-process transport path end to end.
func TestRunChanTransport(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{
		"-duration", "300ms", "-rate", "120", "-transport", "chan",
		"-clock", "offset", "-slack", "3ms",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestRunBadFlags checks usage errors exit 2 without starting a runtime.
func TestRunBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-clock", "atomic"}, &out, &errb); code != 2 {
		t.Fatalf("unknown clock: exit %d, want 2", code)
	}
	if code := run([]string{"-transport", "carrier-pigeon"}, &out, &errb); code != 2 {
		t.Fatalf("unknown transport: exit %d, want 2", code)
	}
	if code := run([]string{"-eps", "-1ms"}, &out, &errb); code != 2 {
		t.Fatalf("negative eps: exit %d, want 2", code)
	}
}
