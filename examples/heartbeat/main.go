// Heartbeat: failure detection with partially synchronized clocks — the
// very first use of time the paper's introduction names. The detector is
// written once against perfect time; this program shows what clock skew
// does to it:
//
//  1. the timed-model timeout π+(d2−d1) is perfectly accurate in D_T;
//  2. the same timeout in D_C false-suspects live nodes under adversarial
//     clocks (heartbeat gaps stretch by up to 4ε);
//  3. adding the 4ε margin (the §7.1 strengthening, applied to timeouts)
//     restores accuracy — and a genuinely crashed node is still detected
//     promptly.
package main

import (
	"fmt"
	"log"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func runOnce(model string, timeout simtime.Duration, eps simtime.Duration,
	bounds simtime.Interval, crashAt simtime.Time) (falseSus int, detect []simtime.Duration) {
	p := detector.Params{Period: 5 * ms, Timeout: timeout, Heartbeats: 30}
	if crashAt > 0 {
		p.Heartbeats = 0
	}
	cfg := core.Config{N: 3, Bounds: bounds, Seed: 11, Clocks: clock.SawtoothFactory(eps, 8*ms)}
	net, err := core.Build(model, cfg, detector.Factory(p))
	if err != nil {
		log.Fatal(err)
	}
	if crashAt > 0 {
		if _, err := core.CrashNode(net, 2, crashAt); err != nil {
			log.Fatal(err)
		}
	}
	if err := net.Sys.Run(simtime.Time(200 * ms)); err != nil {
		log.Fatal(err)
	}
	lastBeat := simtime.Time(simtime.Duration(p.Heartbeats) * p.Period)
	for _, s := range detector.Suspicions(net.Sys.Trace()) {
		switch {
		case crashAt > 0 && s.Of == ta.NodeID(2) && s.At.After(crashAt):
			detect = append(detect, s.At.Sub(crashAt))
		case p.Heartbeats == 0 || s.At.Before(lastBeat):
			falseSus++
		}
	}
	return falseSus, detect
}

func main() {
	bounds := simtime.NewInterval(500*us, 1500*us)
	eps := 800 * us
	period := 5 * ms
	tight := detector.SafeTimeoutTA(period, bounds)
	safe := detector.SafeTimeoutClock(period, bounds, eps)

	tb := stats.NewTable("configuration", "timeout", "false suspicions")
	f1, _ := runOnce("timed", tight, eps, bounds, 0)
	tb.AddRow("D_T, tight timeout π+(d2−d1)", tight.String(), fmt.Sprint(f1))
	f2, _ := runOnce("clock", tight, eps, bounds, 0)
	tb.AddRow("D_C, same tight timeout", tight.String(), fmt.Sprint(f2))
	f3, _ := runOnce("clock", safe, eps, bounds, 0)
	tb.AddRow("D_C, +4ε margin", safe.String(), fmt.Sprint(f3))

	fmt.Printf("heartbeats every %v, links %v, sawtooth clocks with ε = %v\n\n", period, bounds, eps)
	fmt.Print(tb.String())

	_, detect := runOnce("clock", safe, eps, bounds, simtime.Time(50*ms))
	fmt.Printf("\nwith node n2 crashed at 50ms (safe timeout): detected by %d peers, latencies %v\n",
		len(detect), stats.Summarize(detect))
	fmt.Println("\nthe tight timeout is sound where it was designed and unsound one model down;")
	fmt.Println("4ε of margin — the §7.1 technique applied to timeouts — restores accuracy.")
}
