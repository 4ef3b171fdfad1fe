package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
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
	for _, clocks := range []string{"perfect", "spread", "drift", "sawtooth"} {
		if code := run([]string{"-clocks", clocks, "-ops", "3", "-n", "2"}); code != 0 {
			t.Errorf("clocks=%s: code = %d", clocks, code)
		}
	}
	for _, delays := range []string{"min", "max", "uniform", "spread"} {
		if code := run([]string{"-delays", delays, "-ops", "3", "-n", "2"}); code != 0 {
			t.Errorf("delays=%s: code = %d", delays, code)
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
