// Command pscfleet runs the multi-process fleet: it spawns one pscnode
// OS process per node over real TCP, drives client load against them,
// injects an orchestrated chaos schedule (crash+restart, partitions,
// delay spikes past d2, clock steps past ε) where every fault carries an
// expected outcome, and verifies the merged event stream online with the
// same Monitor → sharded-checker stack the single-process harness uses.
//
// The run fails (exit 1) if any fault's observed outcome contradicts its
// expectation, if the checker reports violations not explained by
// injected message/process loss, or if the recorder dropped events.
// -json PATH writes the run's report (fleet.Report) as one JSON document.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"psclock/internal/fleet"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pscfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 3, "fleet size (one OS process per node)")
		registers = fs.Int("registers", 2, "data registers per node")
		tiers     = fs.String("tiers", "", "per-register consistency tiers (e.g. lin:seq, or mix:0.5)")
		duration  = fs.Duration("duration", 12*time.Second, "load duration")
		clients   = fs.Int("clients", 0, "client goroutines (0 = nodes)")
		rate      = fs.Float64("rate", 200, "per-client ops/s cap (0 = unpaced)")
		writeFr   = fs.Float64("write", 0.5, "write fraction")
		seed      = fs.Int64("seed", 1, "rng seed (load and generated chaos)")

		chaos = fs.String("chaos", "default", `chaos schedule: "default", "gen:<k>", "none", or a DSL script ("kind@start[+dur]:target[-peer][+amount][!expected]; ...")`)

		detPeriod  = fs.Duration("detperiod", 150*time.Millisecond, "heartbeat period π")
		detTimeout = fs.Duration("dettimeout", 0, "heartbeat timeout τ (0 = SafeTimeoutClock + slack)")

		checkShards = fs.Int("checkshards", 2, "checker worker shards")
		jsonPath    = fs.String("json", "", "write the run's report to this file as one JSON document")
		nodeBin     = fs.String("nodebin", "", "pscnode binary (default: sibling of this binary, else go build)")
		verbose     = fs.Bool("v", false, "verbose plane/daemon logging")
	)
	m := fleet.DefaultModel()
	m.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	bin, cleanup, err := findNodeBin(*nodeBin, stderr)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		fmt.Fprintf(stderr, "pscfleet: locate pscnode: %v\n", err)
		return 2
	}

	plane, err := fleet.NewPlane(fleet.PlaneConfig{
		N:           *nodes,
		Registers:   *registers,
		Tiers:       *tiers,
		Eps:         m.Eps,
		D1:          m.D1,
		D2:          m.D2,
		Delta:       m.Delta,
		C:           m.C,
		Ell:         m.Ell,
		Slack:       m.Slack,
		DetPeriod:   simtime.Duration(*detPeriod),
		DetTimeout:  simtime.Duration(*detTimeout),
		NodeBin:     bin,
		CheckShards: *checkShards,
		Verbose:     *verbose,
		Logw:        stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pscfleet: %v\n", err)
		return 2
	}

	// The scripts below index nodes: NewPlane has refused a fleet too small
	// for them, and spawned nothing.
	var script fleet.Script
	switch {
	case *chaos == "none":
	case *chaos == "default":
		script = fleet.DefaultScript(*nodes, m.Eps, m.D2)
	case len(*chaos) > 4 && (*chaos)[:4] == "gen:":
		var k int
		if _, err := fmt.Sscanf(*chaos, "gen:%d", &k); err != nil || k <= 0 {
			fmt.Fprintf(stderr, "pscfleet: bad -chaos %q\n", *chaos)
			return 2
		}
		script = fleet.GenScript(*seed, *nodes, k, *duration, m.Eps, m.D2)
	default:
		script, err = fleet.ParseScript(*chaos, *nodes)
		if err != nil {
			fmt.Fprintf(stderr, "pscfleet: %v\n", err)
			return 2
		}
	}

	fmt.Fprintf(stdout, "pscfleet: %d nodes × %d registers, %v load, chaos: %s\n",
		*nodes, *registers, *duration, scriptLabel(script))
	if err := plane.Start(); err != nil {
		fmt.Fprintf(stderr, "pscfleet: start: %v\n", err)
		plane.Close()
		return 2
	}
	fmt.Fprintf(stdout, "pscfleet: all %d node processes ready\n", *nodes)

	// SIGINT/SIGTERM end the run early but cleanly: load stops, the
	// in-flight fault heals, the fleet drains, and the report still emits.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(stderr, "pscfleet: interrupted; draining")
		close(stop)
	}()

	nClients := *clients
	if nClients <= 0 {
		nClients = *nodes
	}
	loadCfg := live.LoadConfig{
		Clients:    nClients,
		Duration:   *duration,
		Rate:       *rate,
		WriteRatio: *writeFr,
		Registers:  *registers,
		Seed:       *seed,
		Stop:       stop,
	}
	if *tiers != "" {
		tt, terr := register.ParseTiers(*tiers, *registers)
		if terr != nil {
			fmt.Fprintf(stderr, "pscfleet: %v\n", terr)
			plane.Close()
			return 2
		}
		loadCfg.Tiers = tt
	}
	resolve := func(client int) (string, ta.NodeID) {
		node := client % *nodes
		return plane.ClientAddr(node), ta.NodeID(node)
	}

	loadStart := time.Now()
	var (
		wg       sync.WaitGroup
		res      live.LoadResult
		outcomes []fleet.ChaosOutcome
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = live.RunLoadDynamic(resolve, loadCfg)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcomes = plane.RunScript(script, loadStart, stop)
	}()
	wg.Wait()
	wall := time.Since(loadStart)

	verdict := plane.Shutdown()
	stats := plane.Stats()

	rep := buildReport(reportInputs{
		nodes: *nodes, registers: *registers, tiersSpec: *tiers,
		clients: nClients, seed: *seed, wall: wall,
		model: m, checkShards: *checkShards,
		script: script, outcomes: outcomes,
		res: res, stats: stats, verdict: verdict,
		crashes: plane.Crashes(),
	})

	printReport(stdout, rep, res, verdict)
	if *jsonPath != "" {
		if err := live.WriteReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(stderr, "pscfleet: write %s: %v\n", *jsonPath, err)
			return 2
		}
		fmt.Fprintf(stdout, "pscfleet: wrote %s\n", *jsonPath)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

type reportInputs struct {
	nodes, registers int
	tiersSpec        string
	clients          int
	seed             int64
	wall             time.Duration
	model            live.Model
	checkShards      int
	script           fleet.Script
	outcomes         []fleet.ChaosOutcome
	res              live.LoadResult
	stats            fleet.FleetStats
	verdict          fleet.FleetVerdict
	crashes          int
}

func buildReport(in reportInputs) *fleet.Report {
	us := func(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }
	mismatches := 0
	lossy := false
	for _, o := range in.outcomes {
		if !o.Match {
			mismatches++
		}
		if o.Kind == string(fleet.FaultCrash) || o.Kind == string(fleet.FaultPartition) {
			lossy = true
		}
	}
	// A crash loses in-flight invocations with the process, and a
	// partition drops update frames on the floor — both outside the model
	// the registers' guarantees assume (Definition 2.3 delivers every
	// message within [d1, d2]), so checker violations in a run with those
	// faults are explained. A broken stream contract (§6.1 alternation,
	// invocation/response pairing) is not: no fault excuses it. Everything
	// else must check clean.
	explained := 0
	if lossy {
		explained = in.verdict.Violations
		for _, msg := range in.verdict.Messages {
			if strings.HasPrefix(msg, "stream contract:") {
				explained--
			}
		}
	}

	rep := &fleet.Report{
		ReportCore: live.ReportCore{
			Nodes:      in.nodes,
			Registers:  in.registers,
			Tiers:      in.tiersSpec,
			Clients:    in.clients,
			Clock:      "perfect+step",
			Seed:       in.seed,
			GOMAXPROCS: runtime.GOMAXPROCS(0),

			EpsConfigUS:   us(in.model.Eps),
			EpsMeasuredUS: us(in.stats.Eps),
			D1ConfigUS:    us(in.model.D1),
			D2ConfigUS:    us(in.model.D2),
			Envelope:      in.model.Envelope(in.stats.Measured),

			Messages:        in.stats.Messages,
			Held:            in.stats.Held,
			DelayViolations: in.stats.DelayViolations,
			Reconnects:      in.stats.Reconnects,

			Violations:    in.verdict.Violations,
			CheckStates:   in.verdict.CheckStates,
			CheckShards:   in.checkShards,
			RecorderDrops: in.stats.RecorderDrops,
		},
		DetPeriodUS:   us(in.stats.DetPeriod),
		DetTimeoutUS:  us(in.stats.DetTimeout),
		FramesDropped: int64(in.stats.SendDrops),

		ChaosScript:     in.script.String(),
		Chaos:           in.outcomes,
		ChaosMismatches: mismatches,

		Crashes:    in.crashes,
		Restarts:   in.stats.Restarts,
		Recoveries: in.stats.Recoveries,
		Suspects:   in.stats.Suspects,
		Restores:   in.stats.Restores,

		ExplainedViolations:   explained,
		UnexplainedViolations: in.verdict.Violations - explained,

		MergedEvents: in.verdict.Emitted,
		MergeClamped: in.verdict.Clamped,
	}
	rep.SetLoad(in.res, in.wall)
	rep.Pass = rep.UnexplainedViolations == 0 &&
		rep.ChaosMismatches == 0 &&
		rep.RecorderDrops == 0 &&
		in.res.Errors == 0
	return rep
}

func printReport(w io.Writer, rep *fleet.Report, res live.LoadResult, v fleet.FleetVerdict) {
	fmt.Fprintf(w, "pscfleet: %d ops (%.0f ops/s), read p50 %.0fµs p99 %.0fµs, write p50 %.0fµs p99 %.0fµs, issued late p50 %v p99 %v\n",
		rep.Ops, rep.OpsPerSec, rep.ReadP50US, rep.ReadP99US, rep.WriteP50US, rep.WriteP99US, res.Late.P50, res.Late.P99)
	fmt.Fprintf(w, "pscfleet: ε̂=%.0fµs (ε=%.0fµs), %d messages, %d delay violations, %d frames dropped, %d reconnects\n",
		rep.EpsMeasuredUS, rep.EpsConfigUS, rep.Messages, rep.DelayViolations, rep.FramesDropped, rep.Reconnects)
	fmt.Fprintf(w, "pscfleet: model envelope %s\n", rep.Envelope)
	fmt.Fprintf(w, "pscfleet: %d crashes / %d restarts, %d suspects / %d restores, %d merged events (%d clamped)\n",
		rep.Crashes, rep.Restarts, rep.Suspects, rep.Restores, rep.MergedEvents, rep.MergeClamped)
	for _, r := range rep.Recoveries {
		fmt.Fprintf(w, "pscfleet: node %d incarnation %d serving %.1f ms after the kill (exit seen +%.1f, hello +%.1f, wired +%.1f, node %d's registers, %d updates pending, applied +%.1f)\n",
			r.Node, r.Incarnation, r.ReadyMS, r.DetectMS, r.HelloMS, r.WiredMS, r.FromPeer, r.Updates, r.TransferMS)
	}
	if len(rep.Chaos) > 0 {
		fmt.Fprintf(w, "pscfleet: chaos outcomes (%d mismatches):\n%s", rep.ChaosMismatches, fleet.Summary(rep.Chaos))
	}
	for _, m := range v.Messages {
		fmt.Fprintf(w, "pscfleet: VIOLATION: %s\n", m)
	}
	fmt.Fprintf(w, "pscfleet: violations=%d (explained=%d, unexplained=%d), recorder drops=%d\n",
		rep.Violations, rep.ExplainedViolations, rep.UnexplainedViolations, rep.RecorderDrops)
	if rep.Pass {
		fmt.Fprintln(w, "pscfleet: PASS")
	} else {
		fmt.Fprintln(w, "pscfleet: FAIL")
	}
}

func scriptLabel(s fleet.Script) string {
	if len(s) == 0 {
		return "none"
	}
	return s.String()
}

// findNodeBin resolves the pscnode binary: the explicit flag, a sibling
// of the running executable (the Makefile installs both into bin/), or a
// temp-dir `go build` as a development fallback (requires running from
// inside the module).
func findNodeBin(flagVal string, stderr io.Writer) (string, func(), error) {
	if flagVal != "" {
		return flagVal, nil, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "pscnode")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() && st.Mode()&0o111 != 0 {
			return cand, nil, nil
		}
	}
	dir, err := os.MkdirTemp("", "pscfleet-node")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	bin := filepath.Join(dir, "pscnode")
	cmd := exec.Command("go", "build", "-o", bin, "psclock/cmd/pscnode")
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", cleanup, fmt.Errorf("go build pscnode: %w", err)
	}
	return bin, cleanup, nil
}
