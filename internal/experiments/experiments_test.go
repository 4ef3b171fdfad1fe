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

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
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
			if r.Title != e.Title {
				t.Errorf("result title %q != listed title %q", r.Title, e.Title)
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

// TestMeasuredKWindows checks measuredK on hand-built output times with
// ℓ = 10: node 0's three outputs span exactly 2ℓ, so the window of 2ℓ
// holds 3 > 2 of them and k = 3 is the least k whose window of kℓ holds at
// most k. A pair exactly ℓ apart needs k = 2, outputs more than ℓ apart
// k = 1, and an idle node nothing.
func TestMeasuredKWindows(t *testing.T) {
	for _, tc := range []struct {
		times [][]simtime.Time
		want  int
	}{
		{[][]simtime.Time{{0, 10, 20}, {5, 15}, nil}, 3},
		{[][]simtime.Time{{5, 15}}, 2},
		{[][]simtime.Time{{0, 11, 22, 33}}, 1},
		{[][]simtime.Time{nil}, 1},
	} {
		if got := measuredK(tc.times, 10); got != tc.want {
			t.Errorf("measuredK(%v, 10) = %d, want %d", tc.times, got, tc.want)
		}
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	_, err := run(runSpec{model: "bogus"})
	if err == nil {
		t.Error("bogus model accepted")
	}
}

// TestEvaluateReportsFailures: every table row passes at its seed, so the
// evaluator's failing paths are driven here. Algorithm L in D_C under max
// skew (E9's mutation row) violates linearizability, and a wanted latency
// of zero is missed on both sides; the online verdict still equals the
// batch one.
func TestEvaluateReportsFailures(t *testing.T) {
	m := evaluate(runSpec{
		Config: core.Config{N: 3, Bounds: simtime.NewInterval(200*us, 400*us), Seed: 0, Clocks: clock.SpreadFactory(1 * ms)},
		model:  "clock", factory: register.Factory(register.NewL, register.Params{Delta: 5 * us, D2: 400*us + 2*ms}),
		key: []string{"L", "D_C"}, ops: 50, think: simtime.NewInterval(0, 700*us), writeRatio: 0.3,
		checks: []check{linCheck}, online: true, want: &cost{},
	})
	want := []string{"L/D_C: lin violated: ", "L/D_C: read latency ", "L/D_C: write latency "}
	ok := len(m.fails) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(m.fails[i], want[i])
	}
	if !ok {
		t.Errorf("failures %q, want one starting with each of %q", m.fails, want)
	}
}

// TestMatrixReportsDisagreement: a claim the run contradicts renders "NO"
// and a failure, one it confirms renders "yes", and one whose run errs
// renders only its error.
func TestMatrixReportsDisagreement(t *testing.T) {
	observed := func(holds bool, err error) func() (bool, error) {
		return func() (bool, error) { return holds, err }
	}
	tb, fails := matrix("holds", []claim{
		{[]string{"1", "a"}, true, observed(false, nil)},
		{[]string{"2", "b"}, false, observed(false, nil)},
		{[]string{"3", "c"}, true, observed(true, fmt.Errorf("run failed"))},
	}, "row", "system")
	if want := []string{"row 1 (a): expected holds, observed violated", "run failed"}; !slices.Equal(fails, want) {
		t.Errorf("failures %q, want %q", fails, want)
	}
	for _, line := range []string{"1    a       holds     violated  NO ", "2    b       violated  violated  yes"} {
		if !strings.Contains(tb, line) {
			t.Errorf("table lacks %q:\n%s", line, tb)
		}
	}
	if strings.Contains(tb, "3  ") {
		t.Errorf("a failed run rendered a row:\n%s", tb)
	}
}
