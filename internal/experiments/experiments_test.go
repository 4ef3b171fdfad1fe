package experiments

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// results holds what TestAllExperimentsPass saw each experiment return, for
// TestExperimentOutputIsAFunctionOfTheSeed to compare a second run against
// (E10's long streamed row makes a third run of it the suite's longest
// pole) and TestExperimentTablesGolden to compare with the committed tables.
var results sync.Map // ID → Result

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
			results.Store(e.ID, r)
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
		first := e.Run
		if r, ok := results.Load(id); ok {
			first = func() Result { return r.(Result) }
		}
		prev := runtime.GOMAXPROCS(1)
		second := e.Run().Output
		runtime.GOMAXPROCS(prev)
		if first := first().Output; first != second {
			t.Errorf("%s output differs between two runs of one seed:\n%s\nvs (GOMAXPROCS=1)\n%s", id, first, second)
		}
	}
}

// TestExperimentTablesGolden pins what pscbench prints for every simulated
// experiment, E1–E16, byte for byte: an executor, builder or checker change
// that moves one figure of one table fails here. E17 runs on the wall clock
// and is left out. The file is the output of one command, which regenerates
// it after a change that moves a figure on purpose:
//
//	go run ./cmd/pscbench -run E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16 > internal/experiments/testdata/e1-e16.txt
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment; skipped with -short")
	}
	want, err := os.ReadFile("testdata/e1-e16.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range All() {
		if e.ID == "E17" {
			continue
		}
		r, ok := results.Load(e.ID)
		if !ok {
			r = e.Run()
		}
		fmt.Fprintln(&got, r)
	}
	if got.String() != string(want) {
		t.Errorf("pscbench -run E1,…,E16 no longer prints testdata/e1-e16.txt:\n%s", firstDiff(got.String(), string(want)))
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got  %q\n         want %q", i+1, gl, wl)
		}
	}
	return "equal"
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
