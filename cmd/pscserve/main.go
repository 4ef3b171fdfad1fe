// Command pscserve exposes the transformed register S^c over TCP on a
// live wall-clock runtime and drives it with a load generator,
// monitoring every operation with the online linearizability checker as
// traffic flows. It is the paper's pipeline run against real time
// instead of the simulator: the clock adversary is a configured model
// (the runtime measures the realized offset bound ε̂), message delays
// are real loopback latencies recorded against the designed [d1, d2],
// and the verdict gates the exit status.
//
// Algorithm S pays a fixed latency per operation (reads 2ε+δ+c, writes
// d2+2ε−c), so throughput comes from concurrency, not speed: -registers
// hosts R independent register instances per node sharing its clock and
// transport connections, and -pipeline K lets each client keep K
// operations in flight across zipf-selected registers. Each (node,
// register) port still admits one operation at a time — the §6.1
// alternation condition — and each register's history is checked for
// linearizability independently (the monitor's key fan-out).
//
// Usage:
//
//	pscserve -nodes 3 -clients 3 -duration 2s -clock jitter
//	pscserve -rate 300 -json run.json   # also write the report
//	pscserve -pipeline 64 -registers 24 -rate 0 -checkshards 4   # throughput
//
// The model vector (-eps -d1 -d2 -delta -c -ell -slack) is a live.Model
// and the judging stack a live.Verdict: the gating check relaxes windows
// by ε plus the scheduling slack, the seq tier's staleness bound is the
// model's Θ, and the run reports whether the model's envelope (ε̂ ≤ ε, no
// frame past d2, timer lateness ≤ ℓ) held while it was judged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	rtrace "runtime/trace"
	"syscall"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pscserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 3, "number of register nodes")
	clients := fs.Int("clients", 0, "concurrent clients (0 = one per node)")
	duration := fs.Duration("duration", 2*time.Second, "load duration")
	rate := fs.Float64("rate", 200, "per-client operation rate cap, ops/s (0 = unpaced)")
	writeRatio := fs.Float64("write", 0.1, "fraction of operations that are writes")
	pipeline := fs.Int("pipeline", 0, "per-client in-flight operation bound (<2: closed loop, one op at a time)")
	registers := fs.Int("registers", 1, "independent register instances per node")
	tiersFlag := fs.String("tiers", "", "per-register consistency tiers: a colon list (lin:seq:...; short lists repeat the last entry) or mix:F (fraction of seq registers, spread evenly); empty = all lin, the untiered stack")
	zipfS := fs.Float64("zipf", 1.1, "zipf exponent for register selection (<=1: uniform)")
	minOps := fs.Int("minops", 0, "fail the run below this many completed operations (throughput floor for CI)")
	m := live.Model{
		Eps: 200 * simtime.Microsecond, D2: 5 * simtime.Millisecond, Delta: 100 * simtime.Microsecond,
		Ell: 5 * simtime.Millisecond, Slack: simtime.Millisecond,
	}
	m.Flags(fs)
	clockName := fs.String("clock", "jitter", "clock adversary: perfect, offset (±ε), jitter (drifting within ε)")
	seed := fs.Int64("seed", 1, "load generator and jitter seed")
	checkShards := fs.Int("checkshards", 0, "fan the online checks out across this many worker goroutines (<2: inline on the event consumer)")
	approxWall := fs.Duration("approx", 0, "ε-approximate band for the gating check (0 = exact): orderings that differ only within the band are committed greedily, not searched; an OK verdict still names a concrete witness order")
	gcPercent := fs.Int("gogc", 0, "set the GC target percentage for the run (0 = inherit GOGC): on a single core the collector's concurrent mark competes with the node loops, and its ~10ms bursts are the dominant source of frames measured past d2")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	traceFile := fs.String("trace", "", "write a runtime execution trace to this file")
	jsonPath := fs.String("json", "", "write the run's report to this file as one JSON document")
	verbose := fs.Bool("v", false, "verbose: print the configuration, the node addresses and the per-register load spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *clients == 0 {
		*clients = *nodes
	}
	if *gcPercent > 0 {
		debug.SetGCPercent(*gcPercent)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "pscserve: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "pscserve: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "pscserve: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(stderr, "pscserve: %v\n", err)
			return 2
		}
		defer rtrace.Stop()
	}

	approxEps, err := simtime.FromWall(*approxWall)
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: -approx: %v\n", err)
		return 2
	}
	if err := m.Validate(); err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	p := m.Params()

	var cf clock.Factory
	switch *clockName {
	case "perfect":
		cf = clock.PerfectFactory()
	case "offset":
		cf = clock.SpreadFactory(m.Eps)
	case "jitter":
		cf = clock.DriftFactory(m.Eps, *seed)
	default:
		fmt.Fprintf(stderr, "pscserve: unknown -clock %q (want perfect, offset, jitter)\n", *clockName)
		return 2
	}

	tiers, err := register.ParseTiers(*tiersFlag, *registers)
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	tiered := *tiersFlag != ""
	verdict := live.NewVerdict(live.VerdictConfig{
		Model: m, Nodes: *nodes, Registers: *registers, Tiers: tiers,
		Shards: *checkShards, ApproxEps: approxEps,
	})

	tr, err := live.NewTCPTransport(*nodes)
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	rt, err := live.New(live.Options{
		N:         *nodes,
		Registers: *registers,
		Bounds:    m.Bounds(),
		Ell:       m.Ell,
		Clocks:    cf,
		Transport: tr,
	}, register.Factory(register.NewS, p))
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	if tiered {
		// Per-register tiers: lin registers run algorithm S, seq registers
		// algorithm L, all sharing each node's clock and transport.
		rt.SetRegisterFactory(func(reg int) core.AlgorithmFactory {
			return tiers[reg].Factory(p)
		})
	}
	rt.AddSink(verdict)

	srv, err := live.NewServer(rt)
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	if tiered {
		srv.SetTiers(tiers)
	}
	if err := rt.Start(); err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	srv.Start()

	if *verbose {
		fmt.Fprintf(stdout, "pscserve: n=%d clients=%d registers=%d pipeline=%d clock=%s transport=%s d=[%v,%v] ε=%v δ=%v c=%v d'2=%v\n",
			*nodes, *clients, *registers, *pipeline, *clockName, tr.Name(), m.D1, m.D2, m.Eps, m.Delta, m.C, p.D2)
		for i, a := range srv.Addrs() {
			fmt.Fprintf(stdout, "pscserve: node %d at %s\n", i, a)
		}
	}

	// SIGINT/SIGTERM end the load early instead of killing the process:
	// clients stop issuing and drain their in-flight tails, and the run
	// proceeds to its normal verdict and report — a truncated-but-clean
	// measurement rather than a torn-down one.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintf(stderr, "pscserve: %v: draining load and reporting\n", s)
			close(stop)
		case <-stop:
		}
	}()

	start := time.Now()
	loadCfg := live.LoadConfig{
		Clients:    *clients,
		Duration:   *duration,
		Rate:       *rate,
		WriteRatio: *writeRatio,
		Pipeline:   *pipeline,
		Registers:  *registers,
		ZipfS:      *zipfS,
		Seed:       *seed,
		Stop:       stop,
	}
	if tiered {
		loadCfg.Tiers = tiers
	}
	res := live.RunLoad(srv.Addrs(), loadCfg)
	wall := time.Since(start)
	srv.Close()
	got := rt.Stop()
	out := verdict.Finish()

	for _, msg := range out.Messages {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", msg)
	}
	if len(out.Tail) > 0 {
		fmt.Fprintf(stdout, "last %d events:\n", len(out.Tail))
		for _, e := range out.Tail {
			fmt.Fprintf(stdout, "  %v\n", e)
		}
	}

	// Per-tier slices of the verdict: each register's own result rolls up
	// into its tier's violation count and checker work, so both tiers are
	// independently accountable — 0 violations on each is the bar.
	var tierRep [2]*live.TierReport
	if tiered {
		for t := range tierRep {
			tierRep[t] = &live.TierReport{
				Ops:        res.Tier[t].Ops,
				Reads:      res.Tier[t].Reads,
				Writes:     res.Tier[t].Writes,
				ReadP50US:  us(res.Tier[t].ReadLat.P50),
				ReadP99US:  us(res.Tier[t].ReadLat.P99),
				WriteP50US: us(res.Tier[t].WriteLat.P50),
				WriteP99US: us(res.Tier[t].WriteLat.P99),
			}
		}
		for i, kr := range out.PerReg {
			rep := tierRep[tiers[i]]
			rep.Registers++
			rep.CheckStates += kr.States
			if !kr.OK {
				rep.Violations++
			}
		}
	}

	report := &live.Report{
		ReportCore: live.ReportCore{
			Nodes:      *nodes,
			Clients:    *clients,
			Registers:  *registers,
			Clock:      *clockName,
			Seed:       *seed,
			GOMAXPROCS: runtime.GOMAXPROCS(0),

			EpsConfigUS:   us(m.Eps),
			EpsMeasuredUS: us(got.Eps),
			D1ConfigUS:    us(m.D1),
			D2ConfigUS:    us(m.D2),
			Envelope:      m.Envelope(got),

			Messages:        got.Messages,
			Held:            got.Held,
			DelayViolations: got.DelayViolations,
			Reconnects:      got.Reconnects,

			Violations:    out.Violations,
			CheckStates:   out.States,
			CheckShards:   max(*checkShards, 0),
			RecorderDrops: got.RecorderDrops,
			// The -minops floor is part of the verdict, so stdout, the JSON
			// and the exit status cannot disagree about it.
			Pass: out.Violations == 0 && res.Errors == 0 && got.RecorderDrops == 0 && res.Ops >= *minOps,
		},
		Pipeline:  *pipeline,
		Transport: tr.Name(),

		PipelineDepthMean: res.Depth.Mean(),
		PerRegOps:         res.PerReg,

		EllConfigUS:    us(m.Ell),
		TimerLateUS:    us(got.TimerLate),
		DelayMinUS:     us(got.DelayMin),
		DelayMaxUS:     us(got.DelayMax),
		TimerLateP50US: us(got.TimerLateP50),
		TimerLateP99US: us(got.TimerLateP99),
	}
	report.SetLoad(res, wall)
	if tiered {
		report.Tiers = *tiersFlag
		report.TierLin = tierRep[register.TierLin]
		report.TierSeq = tierRep[register.TierSeq]
		report.ReadDiscountUS = us(res.Tier[register.TierLin].ReadLat.P50) - us(res.Tier[register.TierSeq].ReadLat.P50)
	}

	fmt.Fprintf(stdout, "%d ops (%d reads, %d writes) in %v: %.0f ops/s, %d client errors\n",
		res.Ops, res.Reads, res.Writes, wall.Round(time.Millisecond), report.OpsPerSec, res.Errors)
	fmt.Fprintf(stdout, "read p50/p99 %v/%v  write p50/p99 %v/%v  issued late p50/p99 %v/%v\n",
		res.ReadLat.P50, res.ReadLat.P99, res.WriteLat.P50, res.WriteLat.P99, res.Late.P50, res.Late.P99)
	if tiered {
		lin, seq := res.Tier[register.TierLin], res.Tier[register.TierSeq]
		fmt.Fprintf(stdout, "tiers (%s): lin %d regs, %d ops, read p50 %v; seq %d regs, %d ops, read p50 %v; discount %v (2ε=%v, Θ=%v)\n",
			*tiersFlag, tierRep[register.TierLin].Registers, lin.Ops, lin.ReadLat.P50,
			tierRep[register.TierSeq].Registers, seq.Ops, seq.ReadLat.P50,
			lin.ReadLat.P50-seq.ReadLat.P50, 2*m.Eps, m.Theta())
		fmt.Fprintf(stdout, "tier verdicts: lin %d violations (%d states), seq %d violations (%d states)\n",
			tierRep[register.TierLin].Violations, tierRep[register.TierLin].CheckStates,
			tierRep[register.TierSeq].Violations, tierRep[register.TierSeq].CheckStates)
	}
	if *pipeline > 1 {
		fmt.Fprintf(stdout, "pipeline depth mean %.1f of %d; recorder drops %d\n",
			res.Depth.Mean(), *pipeline, got.RecorderDrops)
	}
	if *verbose && len(res.PerReg) > 0 {
		lo, hi := res.PerReg[0], res.PerReg[0]
		for _, k := range res.PerReg {
			lo, hi = min(lo, k), max(hi, k)
		}
		fmt.Fprintf(stdout, "per-register ops over %d registers: min %d, max %d\n", len(res.PerReg), lo, hi)
	}
	fmt.Fprintf(stdout, "measured ε̂=%v (configured %v)  timer-late p50/p99/max=%v/%v/%v (budget %v)  delay=[%v,%v] of [%v,%v], %d past d2, %d dropped at a full queue\n",
		got.Eps, m.Eps, got.TimerLateP50, got.TimerLateP99, got.TimerLate, m.Ell, got.DelayMin, got.DelayMax, m.D1, m.D2, got.DelayViolations, got.SendDrops)
	fmt.Fprintf(stdout, "model envelope %s\n", report.Envelope)
	if report.Pass {
		fmt.Fprintf(stdout, "PASS: online linearizability held over %d live operations\n", res.Ops)
	}

	if *jsonPath != "" {
		if err := live.WriteReport(*jsonPath, report); err != nil {
			fmt.Fprintf(stderr, "pscserve: write %s: %v\n", *jsonPath, err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}

	if !report.Pass {
		if res.Errors > 0 {
			fmt.Fprintf(stdout, "FAIL: %d client errors\n", res.Errors)
		}
		if got.RecorderDrops > 0 {
			fmt.Fprintf(stdout, "FAIL: %d recorder drops\n", got.RecorderDrops)
		}
		if res.Ops < *minOps {
			fmt.Fprintf(stdout, "FAIL: %d ops below the -minops floor %d\n", res.Ops, *minOps)
		}
		return 1
	}
	return 0
}

// us renders a duration in microseconds for the JSON report.
func us(d simtime.Duration) float64 {
	return float64(d) / float64(simtime.Microsecond)
}
