package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// -all and -selftest run each workload in a child process of this same
// binary, as the driver does, and read back what it printed.

// childRun is one child's output: every metric it printed by name, and its
// JSON line.
type childRun struct {
	all      map[string]float64
	problems []string // the run's failed output checks
	line     line
}

func runChild(exe, workload string, seed int64, seconds, trace int, stderr io.Writer) (*childRun, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return parseChild(out)
}

// parseChild reads "name value unit" lines and the closing JSON line.
func parseChild(out []byte) (*childRun, error) {
	run := &childRun{all: make(map[string]float64)}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, checkFailed) {
			run.problems = append(run.problems, last)
		}
		if f := strings.Fields(last); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				run.all[f[0]] = v
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &run.line); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return run, nil
}

// runAll prints every metric of every workload by name with its unit:
// the end-to-end metrics from a gated run, the per-layer metrics from the
// traced run that follows it.
func runAll(exe string, seed int64, seconds int, stdout, stderr io.Writer) int {
	status := 0
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			run, err := runChild(exe, wl.Name, seed, seconds, trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			defs, kind := endToEnd, "gated"
			if trace == 1 {
				defs, kind = perLayer, "traced"
			}
			fmt.Fprintf(stdout, "== %s (%s): correct=%v attempted=%d failed=%d\n",
				wl.Name, kind, run.line.Correct, run.line.Attempted, run.line.Failed)
			for _, d := range defs {
				fmt.Fprintf(stdout, "%-13s %-40s %18.6f %s\n", wl.Name, wl.label(d.Name), run.line.Metrics[d.Name].Value, d.Unit)
			}
			for _, p := range run.problems {
				fmt.Fprintln(stdout, p)
			}
			if !run.line.Correct {
				status = 1
			}
		}
	}
	return status
}

// exact lists the counts that must repeat exactly from run to run of one
// seed.
var exact = map[string][]string{
	"sim_models":   {"exec.timed_events", "exec.clock_events", "exec.mmt_events", "exec.timed_ops", "exec.clock_ops", "exec.mmt_ops"},
	"check_replay": {"linearize.exact_states", "linearize.approx_states", "linearize.approx_pruned"},
}

// spread is the distance between the quartiles as a share of the median,
// with the quartiles as Python's statistics.quantiles(values, n=4) gives
// them (the exclusive method).
func spread(vs []float64) (q1, med, q3, rel float64) {
	q := quartiles(vs)
	q1, med, q3 = q[0], q[1], q[2]
	if med != 0 {
		rel = (q3 - q1) / med
	}
	return
}

// agree reports whether neither of two medians is worse than the other by
// more than the bound: the driver compares the second set with the first,
// and would accept a second set that is better by any amount, but which of
// two sets of the same code runs first is chance.
func agree(a, b, bound float64) bool {
	return math.Abs(b-a) <= bound*math.Min(a, b)
}

// runSelftest runs two sets of n gated runs per workload (seeds seed …
// seed+n−1, the same in both sets) and prints, per metric and workload,
// both medians and quartiles, their relative difference, the bound, and
// whether the two sets agree: every spread but setup_s's within the bound,
// and the medians within the bound of each other.
func runSelftest(exe string, n int, seed int64, seconds int, stdout, stderr io.Writer) int {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	status := 0
	for set := range sets {
		sets[set] = make(map[key][]float64)
		for _, wl := range workloads {
			for i := 0; i < n; i++ {
				run, err := runChild(exe, wl.Name, seed+int64(i), seconds, 0, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				if !run.line.Correct {
					fmt.Fprintf(stdout, "FAIL %s seed %d set %d: outputs not correct: %s\n", wl.Name, seed+int64(i), set+1, strings.Join(run.problems, "; "))
					status = 1
				}
				for name, v := range run.all {
					sets[set][key{wl.Name, name}] = append(sets[set][key{wl.Name, name}], v)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "| workload | metric | median 1 | q1–q3 1 | spread 1 | median 2 | q1–q3 2 | spread 2 | 2 vs 1 | bound | |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := key{wl.Name, d.Name}
			q1a, ma, q3a, sa := spread(sets[0][k])
			q1b, mb, q3b, sb := spread(sets[1][k])
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / ma
			}
			ok := agree(ma, mb, d.Bound) && (d.Name == "setup_s" || (sa <= d.Bound && sb <= d.Bound))
			mark := "ok"
			if !ok {
				mark, status = "FAIL", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g–%.4g | %.2f%% | %.4g | %.4g–%.4g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				wl.Name, wl.label(d.Name), ma, q1a, q3a, sa*100, mb, q1b, q3b, sb*100, diff*100, d.Bound*100, mark)
		}
		for _, name := range exact[wl.Name] {
			k := key{wl.Name, name}
			same := fmt.Sprint(sets[0][k]) == fmt.Sprint(sets[1][k])
			mark := "ok"
			if !same {
				mark, status = "FAIL", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | repeats exactly per seed: %v | | | | | | | 0 | %s |\n", wl.Name, name, same, mark)
		}
	}
	return status
}
