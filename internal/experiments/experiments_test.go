package experiments

import (
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// outputs holds what TestAllExperimentsPass saw each experiment print, for
// TestExperimentOutputIsAFunctionOfTheSeed to compare a second run against
// (E10's long streamed row makes a third run of it the suite's longest
// pole).
var outputs sync.Map // ID → Result.Output

// TestAllExperimentsPass regenerates every table/figure and asserts the
// paper's claims hold — the same assertions the bench harness makes, kept
// in the unit suite so a plain `go test ./...` exercises the full
// reproduction.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take several seconds; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := e.Run()
			if r.ID != e.ID {
				t.Errorf("result ID %q != %q", r.ID, e.ID)
			}
			if !r.Pass() {
				t.Fatalf("%s failed:\n%s", e.ID, r)
			}
			if r.Output == "" {
				t.Error("empty output")
			}
			outputs.Store(e.ID, r.Output)
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Error("E3 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 found")
	}
}

func TestAllHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if len(seen) != 17 {
		t.Errorf("expected 17 experiments, got %d", len(seen))
	}
}

// TestExperimentOutputIsAFunctionOfTheSeed: nothing a simulated experiment
// prints may depend on the host — not its speed, its load, nor how many
// workers the row pool has. E10 (the executor, sequential and sharded), E3
// and E9 (the widest row fan-outs) each run twice — inside
// TestAllExperimentsPass's parallel pool (here, when that did not run) and
// on a single worker — and must render byte-identical output.
func TestExperimentOutputIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments again; skipped with -short")
	}
	for _, id := range []string{"E10", "E3", "E9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not found", id)
		}
		first, ok := outputs.Load(id)
		if !ok {
			first = e.Run().Output
		}
		prev := runtime.GOMAXPROCS(1)
		second := e.Run().Output
		runtime.GOMAXPROCS(prev)
		if first != second {
			t.Errorf("%s output differs between two runs of one seed:\n%s\nvs (GOMAXPROCS=1)\n%s", id, first, second)
		}
	}
}

// TestDesignIndexMatchesAll keeps DESIGN.md § 4's per-experiment index in
// step with the suite: its ID column lists exactly All()'s IDs, in order.
func TestDesignIndexMatchesAll(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no § 4")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var indexed, all []string
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+)\b`).FindAllStringSubmatch(section, -1) {
		indexed = append(indexed, m[1])
	}
	for _, e := range All() {
		all = append(all, e.ID)
	}
	if !slices.Equal(indexed, all) {
		t.Errorf("DESIGN.md § 4 indexes %v, All() runs %v", indexed, all)
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "EX", Title: "t", Output: "body\n"}
	s := r.String()
	if !strings.Contains(s, "EX") || !strings.Contains(s, "PASS") {
		t.Errorf("String = %q", s)
	}
	r.Failures = []string{"boom"}
	s = r.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "boom") {
		t.Errorf("String = %q", s)
	}
}

func TestMeasuredKWindows(t *testing.T) {
	// measuredK is exercised end-to-end by E8; sanity-check helpers here.
	if got := checkMark(true); got != "yes" {
		t.Errorf("checkMark(true) = %q", got)
	}
	if got := checkMark(false); got != "NO" {
		t.Errorf("checkMark(false) = %q", got)
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	_, err := run(runSpec{model: "bogus"})
	if err == nil {
		t.Error("bogus model accepted")
	}
}
