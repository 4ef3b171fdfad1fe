package main

import (
	"bytes"
	"strings"
	"testing"
)

func runFuzz(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

func TestCleanCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	code, out := runFuzz(t, "-trials", "12", "-seed", "5")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "0 violations") {
		t.Errorf("out = %q", out)
	}
}

func TestMutatedCampaignFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	code, out := runFuzz(t, "-trials", "15", "-seed", "2", "-mutate")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "minimal counterexample") {
		t.Errorf("no violations found by mutated campaign:\n%s", out)
	}
}

func TestVerboseFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	code, out := runFuzz(t, "-trials", "2", "-v")
	if code != 0 || !strings.Contains(out, "trial 0:") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _ := runFuzz(t, "-bogus"); code != 2 {
		t.Error("bad flag accepted")
	}
}

// TestShardedDifferential runs the campaign with the sharded-vs-sequential
// differential check on: the conservative-parallel executor must replay
// every drawn configuration to a byte-identical history.
func TestShardedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations twice per trial")
	}
	code, out := runFuzz(t, "-trials", "10", "-seed", "3", "-shards", "4")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "4-sharded histories identical") {
		t.Errorf("out = %q", out)
	}
}

// trialLines returns the "trial N: <configuration>" lines of a -v run.
func trialLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "trial ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestReplayArgsRerunTheTrial: the command a failure prints must rerun the
// failing trial, not a different configuration — same system, adversaries,
// seed and op count, under the mode flags that shaped it.
func TestReplayArgsRerunTheTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, modes := range [][]string{nil, {"-mutate", "-shards", "4"}} {
		campaign := append([]string{"-trials", "3", "-seed", "1", "-v"}, modes...)
		_, out := runFuzz(t, campaign...)
		want := trialLines(out)
		if len(want) != 3 {
			t.Fatalf("campaign %v printed %d trial lines, want 3:\n%s", campaign, len(want), out)
		}
		for trial := range want {
			_, out = runFuzz(t, replayArgs(campaign, trial)...)
			got := trialLines(out)
			if len(got) != trial+1 || got[trial] != want[trial] {
				t.Errorf("replay of trial %d of %v ran\n  %v\nthe campaign ran\n  %s", trial, campaign, got, want[trial])
			}
		}
	}
}
