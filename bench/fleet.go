package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"psclock/internal/fleet"
	"psclock/internal/live"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// fleet_crash: fleet.Plane with one pscnode process per node, pscfleet's
// defaults (ε = 2 ms, d2 = 10 ms, δ = 1 ms, so the floors are read 5 ms
// and write 14 ms), two closed-loop clients following their nodes through
// live.RunLoadDynamic, and four SIGKILLs spread over the window, each
// waited out until the plane has a replacement serving.
const (
	fleetNodes     = 3
	fleetRegisters = 2
	fleetClients   = 2
	fleetRate      = 150
	fleetWrites    = 0.5

	fleetEps   = 2 * simtime.Millisecond
	fleetD2    = 10 * simtime.Millisecond
	fleetDelta = 1 * simtime.Millisecond

	fleetReadFloor  = 2*fleetEps + fleetDelta
	fleetWriteFloor = fleetD2 + 2*fleetEps
)

// fleetKills is the crash schedule: when, as a share of the window (+3,
// +7.5, +12 and +16.5 s of a 20 s window), and which node. Nodes 1 and 0
// alternate because both have a client.
var fleetKills = []struct {
	at   float64
	node int
}{{0.15, 1}, {0.375, 0}, {0.6, 1}, {0.825, 0}}

func runFleet(e *env) (*result, error) {
	tr := e.tr
	if _, err := os.Stat(e.nodeBin); err != nil {
		return nil, fmt.Errorf("pscnode binary: %w (bench/run.sh builds it; or pass -nodebin)", err)
	}
	setup := tr.start(e.root, "setup")
	plane, err := fleet.NewPlane(fleet.PlaneConfig{
		N:           fleetNodes,
		Registers:   fleetRegisters,
		Eps:         fleetEps,
		D2:          fleetD2,
		Delta:       fleetDelta,
		Ell:         5 * simtime.Millisecond,
		Slack:       6 * simtime.Millisecond,
		DetPeriod:   150 * simtime.Millisecond,
		Seed:        e.seed,
		NodeBin:     e.nodeBin,
		CheckShards: 2,
		MaxRestarts: len(fleetKills),
	})
	if err != nil {
		return nil, err
	}
	// Reaped children's CPU survives execve, and run.sh reaps two compiler
	// runs before it execs the harness: count the node processes only.
	cu0, cs0 := cpuTime(syscall.RUSAGE_CHILDREN)
	s := tr.start(setup, "Plane.Start")
	t0 := time.Now()
	if err := plane.Start(); err != nil {
		plane.Close()
		return nil, err
	}
	spawnReady := time.Since(t0)
	tr.finish(s)
	busy := time.Since(processStart)

	resolve := func(client int) (string, ta.NodeID) {
		node := client % fleetNodes
		return plane.ClientAddr(node), ta.NodeID(node)
	}
	// Reads only, as in the single-process workloads: the measured call
	// must be the only one that writes.
	load := live.LoadConfig{
		Clients:    fleetClients,
		Rate:       fleetRate,
		WriteRatio: 0,
		Registers:  fleetRegisters,
		Seed:       e.seed,
		Duration:   time.Until(processStart.Add(e.workload.box)),
	}
	s = tr.start(setup, "RunLoadDynamic:warmup")
	warm := live.RunLoadDynamic(resolve, load)
	tr.finish(s)
	tr.finish(setup)

	r := newResult()
	r.set("setup_s", time.Since(processStart).Seconds())
	r.set("bench.setup_busy_s", busy.Seconds())
	r.set("fleet.spawn_ready_ms", float64(spawnReady.Microseconds())/1e3)

	load.WriteRatio = fleetWrites
	load.Duration = e.window
	window := tr.start(e.root, "window")
	u0, s0 := cpuTime(syscall.RUSAGE_SELF)
	start := time.Now()
	var (
		wg         sync.WaitGroup
		res        live.LoadResult
		recoveries []float64 // ms, of the replacements that arrived
		down       time.Duration
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := tr.start(window, "RunLoadDynamic")
		res = live.RunLoadDynamic(resolve, load)
		tr.finish(s)
	}()
	go func() {
		defer wg.Done()
		for _, k := range fleetKills {
			time.Sleep(time.Until(start.Add(time.Duration(k.at * float64(e.window)))))
			inc, _ := plane.Incarnation(k.node)
			s := tr.start(window, fmt.Sprintf("Kill->WaitReplaced:node%d", k.node))
			killed := time.Now()
			if err := plane.Kill(k.node); err == nil && plane.WaitReplaced(k.node, inc, 20*time.Second) {
				recoveries = append(recoveries, float64(time.Since(killed).Microseconds())/1e3)
			}
			down += time.Since(killed)
			tr.finish(s)
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	u1, s1 := cpuTime(syscall.RUSAGE_SELF)
	tr.finish(window)

	s = tr.start(e.root, "Plane.Shutdown")
	verdict := plane.Shutdown()
	tr.finish(s)
	stats := plane.Stats()
	// Every node process has been reaped by now, so this is the whole
	// life of all seven incarnations.
	cu, cs := cpuTime(syscall.RUSAGE_CHILDREN)
	cu, cs = cu-cu0, cs-cs0

	r.attempted = res.Ops + res.Errors
	r.failed = res.Errors
	offeredOps := offered(fleetClients, fleetRate, fleetWrites, false, fleetReadFloor, fleetWriteFloor, e.window)
	clientMetrics(r, res, wall, offeredOps, fleetReadFloor, fleetWriteFloor)
	if res.Ops > 0 {
		cpu := (u1 - u0) + (s1 - s0) + cu + cs
		r.set("live.proc.cpu_us_per_op", float64(cpu.Microseconds())/float64(res.Ops))
		r.set("live.transport.frames_per_op", float64(stats.Messages)/float64(res.Ops))
	}
	if seen := res.Ops + warm.Ops; seen > 0 {
		r.set("linearize.states_per_op", float64(verdict.CheckStates)/float64(seen))
	}
	epsHat := simtime.Duration(0)
	for _, eps := range stats.EpsByNode {
		epsHat = max(epsHat, eps)
	}
	r.set("live.transport.frames", float64(stats.Messages))
	r.set("live.transport.held", float64(stats.Held))
	r.set("live.transport.past_d2", float64(stats.DelayViolations))
	r.set("live.runtime.timer_late_max_us", us(stats.TimerLate))
	r.set("live.runtime.eps_hat_us", us(epsHat))
	r.set("live.recorder.drops", float64(stats.RecorderDrops))
	r.set("live.proc.cpu_user_s", (u1 - u0 + cu).Seconds())
	r.set("live.proc.cpu_sys_s", (s1 - s0 + cs).Seconds())
	r.set("fleet.recovery_ms", quantile(recoveries, 0.5))
	r.set("fleet.recovery_max_ms", quantile(recoveries, 1))
	r.set("fleet.restarts", float64(stats.Restarts))
	r.set("fleet.suspects", float64(stats.Suspects))
	r.set("fleet.restores", float64(stats.Restores))
	r.set("fleet.merged_events", float64(verdict.Emitted))
	r.set("fleet.clamped", float64(verdict.Clamped))
	r.set("fleet.past_d2", float64(stats.DelayViolations))
	r.set("fleet.reconnects", float64(stats.Reconnects))
	r.set("fleet.load_shortfall_ops", max(0, offeredOps-float64(res.Ops)))

	r.check(len(recoveries) == len(fleetKills), "%d of %d killed nodes were replaced", len(recoveries), len(fleetKills))
	// A SIGKILL loses the victim's in-flight operations and frames, which
	// Definition 2.3's delivery model excludes, so a checker violation in
	// this run is explained by the injected faults. A broken stream
	// contract (alternation, pairing) is not: no fault excuses it.
	for _, msg := range verdict.Messages {
		r.check(!strings.HasPrefix(msg, "stream contract"), "unexplained violation: %s", msg)
	}
	r.check(stats.RecorderDrops == 0, "%d recorder drops", stats.RecorderDrops)
	r.check(res.Errors == 0 && warm.Errors == 0, "%d client errors", res.Errors+warm.Errors)
	// A killed node's client issues nothing until the replacement serves,
	// so that much of the offered load is the fault's, not the system's.
	up := 1 - down.Seconds()/(fleetClients*e.window.Seconds())
	r.check(float64(res.Ops) >= minAchievedClosed*up*offeredOps,
		"completed %d of %.0f offered ops, %.0f with the nodes' %v down taken out (< %.2f)", res.Ops, offeredOps, up*offeredOps, down.Round(time.Millisecond), minAchievedClosed)
	r.check(res.ReadLat.N > 0 && res.WriteLat.N > 0, "%d reads and %d writes timed", res.ReadLat.N, res.WriteLat.N)
	return r, nil
}
