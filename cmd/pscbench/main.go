// Command pscbench regenerates the experiment tables and figure series of
// EXPERIMENTS.md: one experiment per quantitative claim of the paper.
//
// Usage:
//
//	pscbench                    # run all experiments
//	pscbench -list              # list experiments
//	pscbench -run E3,E4         # run a subset
//	pscbench -cpuprofile cpu.pb # write a CPU profile of the run
//	pscbench -memprofile mem.pb # write a heap profile at exit
//
// Experiments run one after another; parallelism lives inside each
// experiment, which fans its seeded rows over a pool of GOMAXPROCS
// workers (GOMAXPROCS=1 pscbench … is the single-worker run). The
// experiments themselves stay sequential because E17 runs on the wall
// clock and should not share the host with another experiment's rows.
//
// The exit status is nonzero if any experiment's assertions fail.
// Performance is measured and gated by bench/ (bash bench/run.sh), not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"psclock/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pscbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	only := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file after the experiment runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "pscbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pscbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pscbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	failed := 0
	for _, e := range selected {
		r := e.Run()
		fmt.Println(r)
		if !r.Pass() {
			failed++
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pscbench: -memprofile: %v\n", err)
			return 2
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pscbench: -memprofile: %v\n", err)
			return 2
		}
		f.Close()
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pscbench: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
