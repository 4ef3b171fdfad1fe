package main

import "testing"

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

// TestBadFlag covers an unknown flag and every retired flag — those the
// JSON/compare system and the process-global mode setters used to own, and
// the scaling sweep's: each is a usage error now, not a silently accepted
// no-op.
func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-json"}, {"-compare", "old.json"}, {"-tolerance", "0.2"},
		{"-stream"}, {"-streamops", "1000"}, {"-approx"},
		{"-dense"}, {"-shards", "4"}, {"-checkshards", "4"}, {"-parallel", "2"},
		{"-shardsweep"},
	} {
		if code := run(append(args, "-list")); code != 2 {
			t.Errorf("%v: code = %d, want 2", args, code)
		}
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
