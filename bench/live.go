package main

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"psclock/internal/clock"
	"psclock/internal/linearize"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// The three single-process live workloads. Parameters are pscserve's: 3
// nodes over loopback TCP, jitter clocks, c = 0, d1 = 0. d2 is a budget,
// not a measurement — the write waits d2+2ε by timer whatever loopback
// delivers — so the paper's floors are read 2ε+δ+c = 0.5 ms and write
// d2+2ε−c = 5.4 ms.
const (
	liveNodes   = 3
	liveClients = 2

	liveEps   = 200 * simtime.Microsecond
	liveDelta = 100 * simtime.Microsecond
	liveD2    = 5 * simtime.Millisecond
	liveEll   = 5 * simtime.Millisecond

	liveReadFloor  = 2*liveEps + liveDelta
	liveWriteFloor = liveD2 + 2*liveEps

	// A live run counts only if it completes this share of the offered
	// load. An open-loop client issues on an absolute schedule; a
	// closed-loop one paces by sleeping, and every sleep is stretched by the
	// host's timer granularity (≈ 1 ms on the sizing host), lateness RunLoad
	// does not expose, so its bar is lower.
	minAchievedOpen   = 0.95
	minAchievedClosed = 0.80
)

// liveSpec is what differs between the live workloads.
type liveSpec struct {
	registers   int
	zipf        float64
	pipeline    int     // per-client in-flight bound; 0 = closed loop
	rate        float64 // per client, ops/s
	writeRatio  float64
	checkShards int // 0 = inline on the recorder's consumer
	gogc        int // 0 = leave the default
	// slack is the scheduling slack the verdict allows on top of ε, the
	// value the repository's own bench targets run pscserve with (make
	// live-bench, live-pipe-bench): a host stall of a few milliseconds
	// delays a timer, which is the host's fault, not a stale read.
	slack simtime.Duration
}

// The pipelined rates sit inside the envelope on 2 cores: 12 k offered at
// 10 % writes, and 4.8 k at 50 % (24 k at 50 % breaks d2 hundreds of
// times and fails verification). GOGC 1000 because on few cores the
// collector's mark bursts are the main source of frames past d2.
var liveSpecs = map[string]liveSpec{
	"closed_floor": {registers: 1, rate: 250, writeRatio: 0.2, slack: 2 * simtime.Millisecond},
	"pipe_read":    {registers: 64, zipf: 1.1, pipeline: 32, rate: 6000, writeRatio: 0.1, checkShards: 2, gogc: 1000, slack: 5 * simtime.Millisecond},
	"pipe_write":   {registers: 64, zipf: 1.1, pipeline: 32, rate: 2400, writeRatio: 0.5, checkShards: 2, gogc: 1000, slack: 5 * simtime.Millisecond},
}

func us(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }

// offered is the number of operations the load generator completes in the
// window on a system that answers at the paper's floors: an open-loop
// client issues on schedule whatever the latency, a closed-loop one starts
// its next operation a pace after the last one started or when that one
// returns, whichever is later.
func offered(clients int, rate, writeRatio float64, openLoop bool, readFloor, writeFloor simtime.Duration, window time.Duration) float64 {
	if openLoop {
		return float64(clients) * rate * window.Seconds()
	}
	pace := 1 / rate
	cycle := (1-writeRatio)*max(pace, readFloor.Seconds()) + writeRatio*max(pace, writeFloor.Seconds())
	return float64(clients) * window.Seconds() / cycle
}

// clientMetrics files the load generator's view of a run, the
// live.client.* layer.
func clientMetrics(r *result, res live.LoadResult, wall time.Duration, offeredOps float64, readFloor, writeFloor simtime.Duration) {
	r.set("live.client.read_p50_us", us(res.ReadLat.P50))
	r.set("live.client.write_p50_us", us(res.WriteLat.P50))
	r.set("live.client.read_p95_us", us(res.ReadLat.P95))
	r.set("live.client.read_p99_us", us(res.ReadLat.P99))
	r.set("live.client.write_p95_us", us(res.WriteLat.P95))
	r.set("live.client.write_p99_us", us(res.WriteLat.P99))
	r.set("live.client.read_over_floor_us", us(res.ReadLat.P50-readFloor))
	r.set("live.client.write_over_floor_us", us(res.WriteLat.P50-writeFloor))
	r.set("live.client.ops_per_s", float64(res.Ops)/wall.Seconds())
	r.set("live.client.achieved_ratio", float64(res.Ops)/offeredOps)
	r.set("live.client.pipeline_depth_mean", res.Depth.Mean())
}

func runLive(e *env) (*result, error) {
	spec := liveSpecs[e.workload.Name]
	tr := e.tr
	setup := tr.start(e.root, "setup")
	if spec.gogc > 0 {
		debug.SetGCPercent(spec.gogc)
	}

	transport, err := live.NewTCPTransport(liveNodes)
	if err != nil {
		return nil, err
	}
	params := register.Params{C: 0, Delta: liveDelta, D2: liveD2 + 2*liveEps, Epsilon: liveEps}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	mon := register.NewMonitor()
	var checker linearize.Checker = linearize.NewSharded(linearize.ShardedOptions{
		Check: linearize.Options{
			Initial:      register.Initial.String(),
			Widen:        liveEps + spec.slack,
			AssumeUnique: true,
			MaxStates:    1 << 18,
			Yield:        runtime.Gosched,
		},
		Shards: spec.checkShards,
	})
	var timedCheck *timedChecker
	if e.traced {
		timedCheck = &timedChecker{inner: checker}
		checker = timedCheck
	}
	mon.AddChecker("live", checker)
	if spec.registers > 1 {
		mon.SetKeyFunc(func(port ta.NodeID) string { return "r" + strconv.Itoa(int(port)/liveNodes) })
	}

	s := tr.start(setup, "live.New")
	epoch := time.Now()
	rt, err := live.New(live.Options{
		N:         liveNodes,
		Registers: spec.registers,
		Bounds:    simtime.NewInterval(0, liveD2),
		Ell:       liveEll,
		Clocks:    clock.DriftFactory(liveEps, e.seed),
		Transport: transport,
		Epoch:     epoch,
	}, register.Factory(register.NewS, params))
	if err != nil {
		return nil, err
	}
	var (
		timedMon *timedSink
		stages   *stageSink
		tracing  atomic.Bool // stage histograms cover the timed window only
	)
	if e.traced {
		timedMon = &timedSink{inner: mon}
		stages = newStageSink(epoch, tr, &tracing)
		rt.AddSink(timedMon)
		rt.AddSink(stages)
	} else {
		rt.AddSink(mon)
	}
	srv, err := live.NewServer(rt)
	if err != nil {
		return nil, err
	}
	tr.finish(s)
	s = tr.start(setup, "Runtime.Start")
	if err := rt.Start(); err != nil {
		return nil, err
	}
	tr.finish(s)
	s = tr.start(setup, "Server.Start")
	srv.Start()
	tr.finish(s)
	busy := time.Since(processStart)

	// Warm-up on the instance that will be measured, reads only: a second
	// writing RunLoad call would reuse (writer, seq) values and break the
	// §3 uniqueness the checker assumes.
	load := live.LoadConfig{
		Clients:    liveClients,
		Rate:       spec.rate,
		WriteRatio: 0,
		Pipeline:   spec.pipeline,
		Registers:  spec.registers,
		ZipfS:      spec.zipf,
		Seed:       e.seed,
		Duration:   time.Until(processStart.Add(e.workload.box)),
	}
	s = tr.start(setup, "RunLoad:warmup")
	warm := live.RunLoad(srv.Addrs(), load)
	tr.finish(s)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.finish(setup)

	r := newResult()
	r.set("setup_s", time.Since(processStart).Seconds())
	r.set("bench.setup_busy_s", busy.Seconds())

	load.WriteRatio = spec.writeRatio
	load.Duration = e.window
	tracing.Store(true)
	window := tr.start(e.root, "RunLoad")
	u0, s0 := cpuTime(syscall.RUSAGE_SELF)
	start := time.Now()
	res := live.RunLoad(srv.Addrs(), load)
	wall := time.Since(start)
	u1, s1 := cpuTime(syscall.RUSAGE_SELF)
	tr.finish(window)
	tracing.Store(false)
	runtime.ReadMemStats(&ms1)

	teardown := tr.start(e.root, "teardown")
	s = tr.start(teardown, "Server.Close")
	srv.Close()
	tr.finish(s)
	s = tr.start(teardown, "Runtime.Stop")
	m := rt.Stop()
	tr.finish(s)
	s = tr.start(teardown, "Monitor.Verdict")
	verdict := mon.Verdict("live")
	tr.finish(s)
	tr.finish(teardown)

	r.attempted = res.Ops + res.Errors
	r.failed = res.Errors
	offeredOps := offered(liveClients, spec.rate, spec.writeRatio, spec.pipeline > 1, liveReadFloor, liveWriteFloor, e.window)
	clientMetrics(r, res, wall, offeredOps, liveReadFloor, liveWriteFloor)
	cpu := (u1 - u0) + (s1 - s0)
	if res.Ops > 0 {
		r.set("live.proc.cpu_us_per_op", float64(cpu.Microseconds())/float64(res.Ops))
		r.set("live.transport.frames_per_op", float64(m.Messages)/float64(res.Ops))
		r.set("live.proc.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(res.Ops))
	}
	if seen := res.Ops + warm.Ops; seen > 0 {
		r.set("linearize.states_per_op", float64(verdict.States)/float64(seen))
	}
	r.set("live.transport.frames", float64(m.Messages))
	r.set("live.transport.held", float64(m.Held))
	r.set("live.transport.delay_max_us", us(m.DelayMax))
	r.set("live.transport.past_d2", float64(m.DelayViolations))
	r.set("live.runtime.timer_late_max_us", us(m.TimerLate))
	r.set("live.runtime.eps_hat_us", us(m.Eps))
	r.set("live.recorder.drops", float64(m.RecorderDrops))
	r.set("live.proc.cpu_user_s", (u1 - u0).Seconds())
	r.set("live.proc.cpu_sys_s", (s1 - s0).Seconds())
	r.set("live.proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	r.set("live.proc.heap_peak_bytes", float64(ms1.HeapSys))

	if e.traced {
		readSvc, writeSvc := stages.readSvc.quantile(0.5)/1e3, stages.writeSvc.quantile(0.5)/1e3
		r.set("live.node.read_service_p50_us", readSvc)
		r.set("live.node.write_service_p50_us", writeSvc)
		r.set("live.wire.read_p50_us", us(res.ReadLat.P50)-readSvc)
		r.set("live.wire.write_p50_us", us(res.WriteLat.P50)-writeSvc)
		r.set("live.recorder.lag_p50_us", stages.lag.quantile(0.5)/1e3)
		r.set("live.recorder.lag_p99_us", stages.lag.quantile(0.99)/1e3)
		if timedMon.events > 0 {
			// The Monitor's own time: what its sink took minus what the
			// checker it drives took.
			r.set("register.monitor_busy_ns_per_event", float64((timedMon.busy-timedCheck.busy).Nanoseconds())/float64(timedMon.events))
		}
		if timedCheck.ops > 0 {
			r.set("linearize.busy_ns_per_op", float64(timedCheck.busy.Nanoseconds())/float64(timedCheck.ops))
		}
		r.set("linearize.finish_ms", float64(timedCheck.finish.Microseconds())/1e3)
	}

	if err := mon.Err(); err != nil {
		r.fail("stream contract: %v", err)
	} else {
		r.check(verdict.OK, "not linearizable within ε+slack: %s", verdict.Reason)
	}
	r.check(m.RecorderDrops == 0, "%d recorder drops", m.RecorderDrops)
	r.check(res.Errors == 0 && warm.Errors == 0, "%d client errors", res.Errors+warm.Errors)
	minAchieved := minAchievedClosed
	if spec.pipeline > 1 {
		minAchieved = minAchievedOpen
	}
	r.check(float64(res.Ops) >= minAchieved*offeredOps, "completed %d of %.0f offered ops (< %.2f)", res.Ops, offeredOps, minAchieved)
	r.check(res.ReadLat.N > 0 && res.WriteLat.N > 0, "%d reads and %d writes timed", res.ReadLat.N, res.WriteLat.N)
	return r, nil
}
