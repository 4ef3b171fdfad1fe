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
//	pscserve -transport chan -rate 300 -json run.json   # also write the report
//	pscserve -pipeline 64 -registers 24 -rate 0 -checkshards 4   # throughput
//
// The gating check relaxes windows by ε plus a scheduling-slack budget
// (-slack): algorithm S already pays for clock uncertainty, so the slack
// only covers real timer-service lateness, the live counterpart of the
// MMT boundmap's ℓ. A "strict" zero-widening check runs alongside for
// reporting; its failures do not gate, matching Theorem 6.5's direction
// that exactness is not achievable, only ε-closeness.
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
	"strconv"
	"syscall"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/trace"
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
	thetaWall := fs.Duration("theta", 0, "staleness bound Θ the seq tier's online sequential-consistency check enforces (0 = c+δ+2ε+ℓ+slack, algorithm L's end-to-end staleness plus scheduling slack)")
	zipfS := fs.Float64("zipf", 1.1, "zipf exponent for register selection (<=1: uniform)")
	zipfV := fs.Float64("zipfv", 0, "zipf offset v (0 = registers/2, flattening the head below the per-key throughput ceiling)")
	minOps := fs.Int("minops", 0, "fail the run below this many completed operations (throughput floor for CI)")
	epsWall := fs.Duration("eps", 200*time.Microsecond, "clock offset bound ε")
	slackWall := fs.Duration("slack", time.Millisecond, "scheduling slack added to ε in the gating check's window relaxation")
	ellWall := fs.Duration("ell", 5*time.Millisecond, "timer-service lateness budget ℓ (report-only)")
	d1Wall := fs.Duration("d1", 0, "designed minimum message delay (enforced)")
	d2Wall := fs.Duration("d2", 5*time.Millisecond, "designed maximum message delay (measured)")
	deltaWall := fs.Duration("delta", 100*time.Microsecond, "update propagation margin δ")
	cWall := fs.Duration("c", 0, "read/write cost split knob c")
	clockName := fs.String("clock", "jitter", "clock adversary: perfect, offset (±ε), jitter (drifting within ε)")
	transport := fs.String("transport", "tcp", "inter-node transport: tcp or chan")
	seed := fs.Int64("seed", 1, "load generator and jitter seed")
	ringN := fs.Int("ring", 64, "post-mortem event tail retained for violation reports")
	checkShards := fs.Int("checkshards", 0, "fan the online checks out across this many worker goroutines (<2: inline on the event consumer)")
	strictMode := fs.String("strict", "auto", "run the informational zero-widening check: on, off, or auto (on for closed-loop runs, off under pipelined load, where its CPU competes with the system under test)")
	approxWall := fs.Duration("approx", 0, "ε-approximate band for the gating check (0 = exact): orderings that differ only within the band are committed greedily, not searched; an OK verdict still names a concrete witness order")
	gcPercent := fs.Int("gogc", 0, "set the GC target percentage for the run (0 = inherit GOGC): on a single core the collector's concurrent mark competes with the node loops, and its ~10ms bursts are the dominant source of frames measured past d2")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	traceFile := fs.String("trace", "", "write a runtime execution trace to this file")
	jsonPath := fs.String("json", "", "write the run's report to this file as one JSON document")
	verbose := fs.Bool("v", false, "verbose: print configuration and per-check verdicts")
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

	conv := func(name string, w time.Duration) (simtime.Duration, bool) {
		d, err := simtime.FromWall(w)
		if err != nil {
			fmt.Fprintf(stderr, "pscserve: -%s: %v\n", name, err)
			return 0, false
		}
		return d, true
	}
	eps, ok := conv("eps", *epsWall)
	if !ok {
		return 2
	}
	slack, ok := conv("slack", *slackWall)
	if !ok {
		return 2
	}
	ell, ok := conv("ell", *ellWall)
	if !ok {
		return 2
	}
	d1, ok := conv("d1", *d1Wall)
	if !ok {
		return 2
	}
	d2, ok := conv("d2", *d2Wall)
	if !ok {
		return 2
	}
	delta, ok := conv("delta", *deltaWall)
	if !ok {
		return 2
	}
	cKnob, ok := conv("c", *cWall)
	if !ok {
		return 2
	}
	approxEps, ok := conv("approx", *approxWall)
	if !ok {
		return 2
	}
	theta, ok := conv("theta", *thetaWall)
	if !ok {
		return 2
	}

	var cf clock.Factory
	switch *clockName {
	case "perfect":
		cf = clock.PerfectFactory()
	case "offset":
		cf = clock.SpreadFactory(eps)
	case "jitter":
		cf = clock.DriftFactory(eps, *seed)
	default:
		fmt.Fprintf(stderr, "pscserve: unknown -clock %q (want perfect, offset, jitter)\n", *clockName)
		return 2
	}

	var tr live.Transport
	switch *transport {
	case "tcp":
		t, err := live.NewTCPTransport(*nodes)
		if err != nil {
			fmt.Fprintf(stderr, "pscserve: %v\n", err)
			return 2
		}
		tr = t
	case "chan":
		tr = nil // runtime default
	default:
		fmt.Fprintf(stderr, "pscserve: unknown -transport %q (want tcp, chan)\n", *transport)
		return 2
	}

	p := register.Params{C: cKnob, Delta: delta, D2: d2 + 2*eps, Epsilon: eps}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}

	tiers, err := register.ParseTiers(*tiersFlag, *registers)
	if err != nil {
		fmt.Fprintf(stderr, "pscserve: %v\n", err)
		return 2
	}
	tiered := *tiersFlag != ""
	if theta == 0 {
		// Algorithm L's end-to-end staleness: a value stops being readable
		// once a newer update has been applied everywhere, which lags the
		// newer write's response by at most c+δ (the read path) plus the
		// clock offset 2ε and the timer-lateness and scheduling budgets.
		theta = cKnob + delta + 2*eps + ell + slack
	}
	// tierOf maps a checker routing key ("r<idx>") back to its register's
	// tier, so the per-key fan-out constructs the right automaton.
	tierOf := func(key string) register.Tier {
		if !tiered || len(key) < 2 {
			return register.TierLin
		}
		idx, err := strconv.Atoi(key[1:])
		if err != nil || idx < 0 || idx >= len(tiers) {
			return register.TierLin
		}
		return tiers[idx]
	}

	mon := register.NewMonitor()
	// With -checkshards, the per-key frontier automata run on a worker pool
	// and the event consumer only routes operations — same verdicts, less
	// work on the recorder's critical path. In a tiered run, each key's
	// automaton is the checker its tier requires: the exact online
	// linearizability engine for lin keys, the Θ-bounded online
	// sequential-consistency engine for seq keys.
	linOpt := linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        eps + slack,
		AssumeUnique: true,
		// Fail fast: a genuinely failing stage proves "no order exists" by
		// exhausting the subset lattice, and an offline-sized budget means
		// seconds of burn on a core the node loops need — each second of
		// which delays more frames past d2 and manufactures more
		// violations. A small budget turns that into a quick sticky fail.
		MaxStates: 1 << 18,
		ApproxEps: approxEps,
		// The checker shares the core(s) with the system it is judging;
		// yielding inside long drains keeps a hard linearization stage
		// from stalling node loops into d2 overruns that the checker
		// would then (correctly) flag — a self-inflicted violation.
		Yield: runtime.Gosched,
	}
	newTiered := func(lin linearize.Options, seq linearize.SeqOptions) func(string) linearize.Automaton {
		return func(key string) linearize.Automaton {
			if tierOf(key) == register.TierSeq {
				return linearize.NewSeqOnline(seq)
			}
			return linearize.NewOnline(lin)
		}
	}
	addCheck := func(name string, opt linearize.Options, seqOpt linearize.SeqOptions) *linearize.Sharded {
		so := linearize.ShardedOptions{Check: opt, Shards: *checkShards}
		if tiered {
			so.New = newTiered(opt, seqOpt)
		}
		c := linearize.NewSharded(so)
		mon.AddChecker(name, c)
		return c
	}
	liveCheck := addCheck("live", linOpt, linearize.SeqOptions{
		Initial:  register.Initial.String(),
		MaxStale: theta,
		Yield:    runtime.Gosched,
	})
	runStrict := false
	switch *strictMode {
	case "on":
		runStrict = true
	case "off":
	case "auto":
		runStrict = *pipeline < 2
	default:
		fmt.Fprintf(stderr, "pscserve: unknown -strict %q (want on, off, auto)\n", *strictMode)
		return 2
	}
	if runStrict {
		// The strict twin widens nothing on the lin tier and, on the seq
		// tier, checks pure sequential consistency (Θ = 0, no mid-stream
		// settling) — informational only, like the lin strict check.
		addCheck("strict", linearize.Options{
			Initial:      register.Initial.String(),
			AssumeUnique: true,
		}, linearize.SeqOptions{Initial: register.Initial.String()})
	}
	if *registers > 1 || tiered {
		// Each register's ports are node IDs r·N … r·N+N−1; all of a
		// register's operations form one history, checked independently
		// against its own tier's specification.
		n := *nodes
		mon.SetKeyFunc(func(port ta.NodeID) string {
			return "r" + strconv.Itoa(int(port)/n)
		})
	}
	ring := trace.NewRing(*ringN)

	rt, err := live.New(live.Options{
		N:         *nodes,
		Registers: *registers,
		Bounds:    simtime.NewInterval(d1, d2),
		Ell:       ell,
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
	rt.AddSink(mon)
	rt.AddSink(ring)

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
			*nodes, *clients, *registers, *pipeline, *clockName, tname(tr), d1, d2, eps, delta, cKnob, p.D2)
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
		ZipfV:      *zipfV,
		Seed:       *seed,
		Stop:       stop,
	}
	if tiered {
		loadCfg.Tiers = tiers
	}
	res := live.RunLoad(srv.Addrs(), loadCfg)
	wall := time.Since(start)
	srv.Close()
	m := rt.Stop()

	violations := 0
	if err := mon.Err(); err != nil {
		fmt.Fprintf(stdout, "VIOLATION (stream contract): %v\n", err)
		violations++
	}
	liveRes := mon.Verdict("live")
	if mon.Err() == nil && !liveRes.OK {
		fmt.Fprintf(stdout, "VIOLATION (live, widen ε+slack=%v): %s\n", eps+slack, liveRes.Reason)
		violations++
		tail := ring.Tail()
		fmt.Fprintf(stdout, "last %d of %d events:\n", len(tail), ring.Total())
		for _, e := range tail {
			fmt.Fprintf(stdout, "  %v\n", e)
		}
	}
	if runStrict {
		strictRes := mon.Verdict("strict")
		if *verbose || !strictRes.OK {
			mark := "OK"
			if !strictRes.OK {
				mark = "violated (informational): " + strictRes.Reason
			}
			fmt.Fprintf(stdout, "strict (widen 0): %s\n", mark)
		}
	}

	// Per-tier slices of the verdict: each register's key result rolls up
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
		for i, tr := range tiers {
			rep := tierRep[tr]
			rep.Registers++
			if kr, ok := liveCheck.KeyResult("r" + strconv.Itoa(i)); ok {
				rep.CheckStates += kr.States
				if !kr.OK {
					rep.Violations++
				}
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

			EpsConfigUS:   us(eps),
			EpsMeasuredUS: us(m.Eps),
			D1ConfigUS:    us(d1),
			D2ConfigUS:    us(d2),

			Messages:        m.Messages,
			Held:            m.Held,
			DelayViolations: m.DelayViolations,
			Reconnects:      m.Reconnects,

			Violations:    violations,
			CheckStates:   liveRes.States,
			CheckShards:   max(*checkShards, 0),
			RecorderDrops: m.RecorderDrops,
			// The -minops floor is part of the verdict, so stdout, the JSON
			// and the exit status cannot disagree about it.
			Pass: violations == 0 && res.Errors == 0 && m.RecorderDrops == 0 && res.Ops >= *minOps,
		},
		Pipeline:  *pipeline,
		Transport: tname(tr),

		PipelineDepthMean: res.Depth.Mean(),
		PerRegOps:         res.PerReg,

		EllConfigUS: us(ell),
		TimerLateUS: us(m.TimerLate),
		DelayMinUS:  us(m.DelayMin),
		DelayMaxUS:  us(m.DelayMax),
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
			lin.ReadLat.P50-seq.ReadLat.P50, 2*eps, theta)
		fmt.Fprintf(stdout, "tier verdicts: lin %d violations (%d states), seq %d violations (%d states)\n",
			tierRep[register.TierLin].Violations, tierRep[register.TierLin].CheckStates,
			tierRep[register.TierSeq].Violations, tierRep[register.TierSeq].CheckStates)
	}
	if *pipeline > 1 {
		fmt.Fprintf(stdout, "pipeline depth mean %.1f of %d; recorder drops %d\n",
			res.Depth.Mean(), *pipeline, m.RecorderDrops)
	}
	if *verbose && len(res.PerReg) > 0 {
		lo, hi := res.PerReg[0], res.PerReg[0]
		for _, k := range res.PerReg {
			lo, hi = min(lo, k), max(hi, k)
		}
		fmt.Fprintf(stdout, "per-register ops over %d registers: min %d, max %d\n", len(res.PerReg), lo, hi)
	}
	fmt.Fprintf(stdout, "measured ε̂=%v (configured %v)  timer-late=%v (budget %v)  delay=[%v,%v] of [%v,%v], %d past d2, %d dropped at a full queue\n",
		m.Eps, eps, m.TimerLate, ell, m.DelayMin, m.DelayMax, d1, d2, m.DelayViolations, m.SendDrops)
	if m.TimerLate > ell {
		fmt.Fprintf(stdout, "note: timer lateness exceeded the ℓ budget (report-only)\n")
	}
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
		if m.RecorderDrops > 0 {
			fmt.Fprintf(stdout, "FAIL: %d recorder drops\n", m.RecorderDrops)
		}
		if res.Ops < *minOps {
			fmt.Fprintf(stdout, "FAIL: %d ops below the -minops floor %d\n", res.Ops, *minOps)
		}
		return 1
	}
	return 0
}

// tname names the transport for reports; nil means the runtime default.
func tname(tr live.Transport) string {
	if tr == nil {
		return "chan"
	}
	return tr.Name()
}

// us renders a duration in microseconds for the JSON report.
func us(d simtime.Duration) float64 {
	return float64(d) / float64(simtime.Microsecond)
}
