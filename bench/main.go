// Command bench is the repository's benchmark: six workloads, each run in
// its own process, that between them exercise the live runtime, the fleet,
// the simulator and the verifier, measure the end-to-end metrics
// BENCHMARK.json bounds and the per-layer metrics that explain them, and
// check every output. README.md documents the metrics and workloads.
//
// Usage (bench/run.sh builds this and cmd/pscnode, then runs it):
//
//	bench -workload closed_floor -seed 1 -seconds 15 -trace 0
//	bench -all             # every metric of every workload, gated + traced
//	bench -selftest 5      # two sets of 5 runs: do they agree within bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s and every span: package initialization
// runs before main, a few hundred microseconds after exec.
var processStart = time.Now()

// env is what a workload needs to know about its run.
type env struct {
	workload workloadDef
	seed     int64
	window   time.Duration
	traced   bool
	tr       *tracer         // nil unless traced
	root     int             // the run's root span
	outDir   string          // build outputs, traces and the overhead reference
	nodeBin  string          // pscnode binary for fleet_crash
	cal      []time.Duration // every calibration spin of the run
	lastSpin time.Duration   // the spin that closed the previous slice
}

// spin runs the calibration work and files it as a host-speed sample.
func (e *env) spin() time.Duration {
	d := spin()
	e.cal = append(e.cal, d)
	return d
}

// spinUntil fills the rest of the set-up box with calibration spins.
func (e *env) spinUntil(deadline time.Time) {
	for time.Until(deadline) > 10*time.Millisecond {
		e.spin()
	}
	if rest := time.Until(deadline); rest > 0 {
		time.Sleep(rest)
	}
	e.lastSpin = 0
}

// slice times one piece of fixed work between two calibration spins and
// returns the faster of the two with it: interference that lands on one
// spin alone would otherwise make the slice look cheap. Slices run back to
// back, so the spin that closes one opens the next.
func (e *env) slice(work func()) sliceTime {
	before := e.lastSpin
	if before == 0 {
		before = e.spin()
	}
	t0, c0 := time.Now(), cpuNow()
	work()
	t := sliceTime{wall: time.Since(t0), cpu: cpuNow() - c0}
	e.lastSpin = e.spin()
	t.spun = min(before, e.lastSpin)
	return t
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics")
	all := fs.Bool("all", false, "run every workload gated and traced, print every metric")
	selftest := fs.Int("selftest", 0, "run two sets of N gated runs per workload and compare their medians with the bounds")
	list := fs.Bool("list", false, "list workloads and metrics")
	nodeBin := fs.String("nodebin", "", "pscnode binary (default: beside this binary, where run.sh builds it)")
	attempt := fs.Int("attempt", 1, "1, or 2 when this process is the one repeat of a live run that failed its checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *all:
		return runAll(exe, *seed, *seconds, stdout, stderr)
	case *selftest > 0:
		return runSelftest(exe, *selftest, *seed, *seconds, stdout, stderr)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q (see -list)\n", *name)
		return 2
	}

	// Two procs, as the sizing host has; a wider host does not change what
	// the run measures.
	runtime.GOMAXPROCS(2)
	e := &env{
		workload: wl,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		outDir:   filepath.Dir(exe),
		nodeBin:  *nodeBin,
	}
	if e.nodeBin == "" {
		e.nodeBin = filepath.Join(e.outDir, "pscnode")
	}
	if e.traced {
		e.tr = newTracer(fmt.Sprintf("%s-seed%d", wl.Name, e.seed), processStart)
		e.root = e.tr.start(0, "run:"+wl.Name)
	}
	for i := 0; i < 5; i++ {
		e.spin()
	}
	res, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
		return 1
	}
	e.tr.finish(e.root)
	e.common(res)
	if len(res.problems) > 0 && wl.repeat && *attempt == 1 {
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "%s attempt 1: %s\n", checkFailed, p)
		}
		again := exec.Command(exe, append(args[:len(args):len(args)], "-attempt", "2")...)
		again.Stdout, again.Stderr = stdout, stderr
		if err := again.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: attempt 2: %v\n", err)
			return 1
		}
		return 0
	}
	res.set("bench.attempts", float64(*attempt))
	if e.traced {
		path := filepath.Join(e.outDir, fmt.Sprintf("trace_%s_seed%d.jsonl", wl.Name, e.seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "bench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s\n", path)
	}
	if err := res.report(stdout, e.traced); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// common fills the metrics every workload reports the same way: the three
// gated costs, from the workload's own figures; the host-speed samples;
// and bench.trace_overhead_ratio, for which a gated run leaves its
// overhead figure beside the binary and the traced run of the same
// workload and window that follows divides its own by it (0 when no gated
// run came first).
func (e *env) common(res *result) {
	for i, native := range e.workload.Gates {
		v := res.m[native] * toMicros[unitOf(native)]
		res.check(v > 0, "%s (%s) was not measured", gateNames[i], native)
		res.set(gateNames[i], v)
	}

	spins := make([]float64, len(e.cal))
	for i, d := range e.cal {
		spins[i] = float64(d.Nanoseconds())
	}
	res.set("bench.cal_ns_p50", quantile(spins, 0.5))
	res.set("bench.cal_ns_iqr", quantile(spins, 0.75)-quantile(spins, 0.25))
	res.set("bench.num_cpu", float64(runtime.NumCPU()))
	res.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	ref := filepath.Join(e.outDir, fmt.Sprintf("gated_%s_%ds.json", e.workload.Name, int(e.window.Seconds())))
	cost := res.m[e.workload.overhead]
	if !e.traced {
		if b, err := json.Marshal(cost); err == nil {
			os.WriteFile(ref, b, 0o644) // best effort: only the overhead ratio depends on it
		}
		return
	}
	var gated float64
	if b, err := os.ReadFile(ref); err == nil && json.Unmarshal(b, &gated) == nil && gated > 0 {
		res.set("bench.trace_overhead_ratio", cost/gated)
	}
}

// cpuTime returns the user and system CPU time the process (who =
// RUSAGE_SELF) or its reaped children (RUSAGE_CHILDREN) have used.
func cpuTime(who int) (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload, gated run):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-40s %-6s %s is better, may worsen by %.0f%%\n", d.Name, d.Unit, d.Better, d.Bound*100)
	}
	fmt.Fprintln(w, "what cost_a_us, cost_b_us and cost_c_us carry:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.Name, strings.Join(wl.Gates[:], ", "))
	}
	fmt.Fprintln(w, "per-layer metrics (traced run) -> the end-to-end metric each should move:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-40s %-6s -> %s\n", d.Name, d.Unit, d.Moves)
	}
}
