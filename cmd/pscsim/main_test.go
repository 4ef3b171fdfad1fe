package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/ta"
)

func TestDefaultsRun(t *testing.T) {
	if code := run([]string{"-ops", "5"}); code != 0 {
		t.Errorf("code = %d", code)
	}
}

func TestAllModelsAndAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations")
	}
	for _, model := range []string{"timed", "clock", "mmt"} {
		for _, alg := range []string{"L", "S", "baseline"} {
			if model != "timed" && alg == "L" {
				continue // L is only guaranteed in the timed model
			}
			args := []string{"-model", model, "-alg", alg, "-ops", "5", "-n", "2"}
			if code := run(args); code != 0 {
				t.Errorf("%s/%s: code = %d", model, alg, code)
			}
		}
	}
}

func TestAdversaryFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations")
	}
	for _, a := range clock.Adversaries {
		if code := run([]string{"-clocks", a.Name, "-ops", "3", "-n", "2"}); code != 0 {
			t.Errorf("clocks=%s: code = %d", a.Name, code)
		}
	}
	for _, p := range channel.Policies {
		if code := run([]string{"-delays", p.Name, "-ops", "3", "-n", "2"}); code != 0 {
			t.Errorf("delays=%s: code = %d", p.Name, code)
		}
	}
	for _, steps := range []string{"lazy", "eager", "uniform"} {
		if code := run([]string{"-model", "mmt", "-steps", steps, "-ops", "3", "-n", "2"}); code != 0 {
			t.Errorf("steps=%s: code = %d", steps, code)
		}
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-model", "bogus"},
		{"-alg", "bogus"},
		{"-clocks", "bogus"},
		{"-delays", "bogus"},
		{"-steps", "bogus", "-model", "mmt"},
		{"-eps", "nonsense"},
	}
	for _, args := range cases {
		if code := run(args); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
	// Out-of-range values exit 2 before anything is built, naming the flag.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "-1"}, "-n"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-d1", "5ms", "-d2", "1ms"}, "-d1"},
		{[]string{"-d1", "-1ms"}, "-d1"},
		{[]string{"-ops", "-1"}, "-ops"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-writes", "1.5"}, "-writes"},
		{[]string{"-writes", "-0.1"}, "-writes"},
		{[]string{"-writes", "NaN"}, "-writes"},
	} {
		code, stderr := runStderr(t, tc.args)
		if code != 2 || !strings.Contains(stderr, "pscsim: "+tc.flag+" ") {
			t.Errorf("args %v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.flag)
		}
	}
}

// runStderr runs pscsim with args and returns its exit code and what it
// wrote to stderr.
func runStderr(t *testing.T, args []string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prev := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = prev
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestTraceAndFIFOFlags(t *testing.T) {
	if code := run([]string{"-ops", "2", "-n", "2", "-trace", "-fifo", "-nobuffer"}); code != 0 {
		t.Errorf("code = %d", code)
	}
}

func TestJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/h.json"
	if code := run([]string{"-ops", "3", "-n", "2", "-json", path}); code != 0 {
		t.Fatalf("code = %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Initial string `json:"initial"`
		Ops     []struct {
			Kind string `json:"kind"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Initial != "v0" || len(h.Ops) != 6 {
		t.Errorf("initial=%q ops=%d", h.Initial, len(h.Ops))
	}
}

// TestTraceJSONStdout pins that -tracejson - writes the trace to stdout, as
// -json - does, with the report moved to stderr so that stdout reads back
// as a trace, and leaves no file named "-" behind.
func TestTraceJSONStdout(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	prev := os.Stdout
	os.Stdout = out
	code, stderr := runStderr(t, []string{"-ops", "2", "-n", "2", "-tracejson", "-"})
	os.Stdout = prev
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if _, err := os.Stat("-"); err == nil {
		t.Error(`-tracejson - created a file named "-"`)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	tr, err := ta.ReadTraceJSON(out)
	if err != nil || len(tr) == 0 {
		t.Errorf("stdout is not a trace: %d events, %v", len(tr), err)
	}
	if !strings.Contains(stderr, "linearizable: yes") {
		t.Errorf("the report is not on stderr: %q", stderr)
	}
	if code, stderr := runStderr(t, []string{"-json", "-", "-tracejson", "-"}); code != 2 || !strings.Contains(stderr, "stdout") {
		t.Errorf("-json - -tracejson -: exit %d, stderr %q; want exit 2", code, stderr)
	}
}
