package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runPsclin(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const goodHistory = `{
  "initial": "v0",
  "ops": [
    {"node": 0, "kind": "write", "value": "a", "inv": 0,  "res": 10},
    {"node": 1, "kind": "read",  "value": "a", "inv": 20, "res": 30}
  ]
}`

const badHistory = `{
  "initial": "v0",
  "ops": [
    {"node": 0, "kind": "write", "value": "a", "inv": 0,  "res": 10},
    {"node": 1, "kind": "read",  "value": "v0", "inv": 20, "res": 30}
  ]
}`

func TestLinearizableFromStdin(t *testing.T) {
	code, out, _ := runPsclin(t, goodHistory, "-")
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestViolationExitCode(t *testing.T) {
	code, out, _ := runPsclin(t, badHistory, "-")
	if code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestWidenRescuesViolation(t *testing.T) {
	// P_ε with a large ε accepts the stale read.
	code, out, _ := runPsclin(t, badHistory, "-widen", "15", "-")
	if code != 0 {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestSuperRejectsShortOps(t *testing.T) {
	h := `{"initial":"v0","ops":[{"node":0,"kind":"read","value":"v0","inv":100,"res":110}]}`
	code, _, _ := runPsclin(t, h, "-super", "20", "-")
	if code != 1 {
		t.Errorf("code=%d, want violation", code)
	}
}

func TestPendingOp(t *testing.T) {
	h := `{"initial":"v0","ops":[{"node":0,"kind":"write","value":"a","inv":0},{"node":1,"kind":"read","value":"a","inv":20,"res":30}]}`
	code, out, _ := runPsclin(t, h, "-")
	if code != 0 {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.json")
	if err := os.WriteFile(path, []byte(goodHistory), 0o600); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runPsclin(t, "", path)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runPsclin(t, ""); code != 2 {
		t.Error("missing arg accepted")
	}
	if code, _, _ := runPsclin(t, "not json", "-"); code != 2 {
		t.Error("bad JSON accepted")
	}
	if code, _, _ := runPsclin(t, `{"ops":[{"kind":"sideways"}]}`, "-"); code != 2 {
		t.Error("bad kind accepted")
	}
	if code, _, _ := runPsclin(t, "", filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Error("missing file accepted")
	}
}

// TestMalformedInputRejected: input the checker cannot judge is a usage
// error (exit 2, naming the op or flag), never a verdict.
func TestMalformedInputRejected(t *testing.T) {
	backwards := `{"initial":"v0","ops":[{"node":0,"kind":"write","value":"a","inv":0,"res":10},{"node":1,"kind":"read","value":"a","inv":30,"res":20}]}`
	for _, tc := range []struct {
		stdin string
		args  []string
		want  string
	}{
		{backwards, []string{"-"}, "op 1: res 20 precedes inv 30"},
		{goodHistory, []string{"-widen", "-5", "-"}, "-widen -5"},
		{goodHistory, []string{"-shift", "-5", "-"}, "-shift -5"},
		{badHistory, []string{"-super", "-10", "-"}, "-super -10"},
	} {
		code, out, errOut := runPsclin(t, tc.stdin, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) || out != "" {
			t.Errorf("args %v: exit %d, stdout %q, stderr %q; want exit 2 naming %q and no verdict", tc.args, code, out, errOut, tc.want)
		}
	}
}
