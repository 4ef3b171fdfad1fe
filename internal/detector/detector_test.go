package detector_test

import (
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func runDetector(t *testing.T, model string, p detector.Params, cf clock.Factory,
	bounds simtime.Interval, crash ta.NodeID, crashAt simtime.Time, horizon simtime.Time) *core.Net {
	t.Helper()
	cfg := core.Config{N: 3, Bounds: bounds, Seed: 3, Clocks: cf}
	net, err := core.Build(model, cfg, detector.Factory(p))
	if err != nil {
		t.Fatal(err)
	}
	if crashAt > 0 {
		if _, err := core.CrashNode(net, crash, crashAt); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Sys.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNoFalseSuspicionsTimedModel(t *testing.T) {
	bounds := simtime.NewInterval(500*us, 1500*us)
	p := detector.Params{
		Period:     5 * ms,
		Timeout:    detector.SafeTimeoutTA(5*ms, bounds),
		Heartbeats: 20,
	}
	net := runDetector(t, "timed", p, nil, bounds, 0, 0, simtime.Time(80*ms))
	if sus := detector.Suspicions(net.Sys.Trace()); len(sus) != 0 {
		t.Fatalf("false suspicions in the timed model: %v", sus)
	}
}

func TestClockModelNeedsMargin(t *testing.T) {
	bounds := simtime.NewInterval(500*us, 1500*us)
	eps := 800 * us
	period := 5 * ms
	// With the timed-model timeout, adversarial sawtooth clocks cause
	// false suspicions (heartbeat gaps stretch by up to 4ε).
	tight := detector.Params{Period: period, Timeout: detector.SafeTimeoutTA(period, bounds), Heartbeats: 25}
	net := runDetector(t, "clock", tight, clock.SawtoothFactory(eps, 8*ms), bounds, 0, 0, simtime.Time(100*ms))
	lastHeartbeat := simtime.Time(simtime.Duration(tight.Heartbeats) * period)
	falseCount := 0
	for _, s := range detector.Suspicions(net.Sys.Trace()) {
		if s.At.Before(lastHeartbeat) {
			falseCount++
		}
	}
	if falseCount == 0 {
		t.Fatal("tight timeout never false-suspected under sawtooth clocks; the 4ε margin appears unnecessary")
	}

	// With the 4ε margin, no false suspicions while beats flow.
	safe := detector.Params{Period: period, Timeout: detector.SafeTimeoutClock(period, bounds, eps), Heartbeats: 25}
	net2 := runDetector(t, "clock", safe, clock.SawtoothFactory(eps, 8*ms), bounds, 0, 0, simtime.Time(100*ms))
	for _, s := range detector.Suspicions(net2.Sys.Trace()) {
		if s.At.Before(lastHeartbeat) {
			t.Fatalf("false suspicion with safe timeout: %+v", s)
		}
	}
}

func TestCrashDetected(t *testing.T) {
	bounds := simtime.NewInterval(500*us, 1500*us)
	eps := 500 * us
	period := 5 * ms
	p := detector.Params{Period: period, Timeout: detector.SafeTimeoutClock(period, bounds, eps), Heartbeats: 0}
	crashAt := simtime.Time(30 * ms)
	net := runDetector(t, "clock", p, clock.DriftFactory(eps, 5), bounds, 2, crashAt, simtime.Time(120*ms))
	byNode := map[ta.NodeID]simtime.Time{}
	for _, s := range detector.Suspicions(net.Sys.Trace()) {
		if s.Of != 2 {
			t.Fatalf("false suspicion of live node: %+v", s)
		}
		if _, ok := byNode[s.By]; !ok {
			byNode[s.By] = s.At
		}
	}
	if len(byNode) != 2 {
		t.Fatalf("crash detected by %d/2 peers", len(byNode))
	}
	// Detection latency ≤ period + timeout + d2 + 2ε of clock slop.
	bound := crashAt.Add(period + p.Timeout + bounds.Hi + 2*eps)
	for by, at := range byNode {
		if at.After(bound) {
			t.Errorf("node %v detected at %v, after bound %v", by, at, bound)
		}
		if at.Before(crashAt) {
			t.Errorf("node %v suspected before the crash", by)
		}
	}
}

func TestRestoreAfterSlowBeat(t *testing.T) {
	// A timeout shorter than the period guarantees suspicion between
	// beats, then RESTORE when the next beat lands.
	bounds := simtime.NewInterval(100*us, 200*us)
	p := detector.Params{Period: 10 * ms, Timeout: 3 * ms, Heartbeats: 5}
	net := runDetector(t, "timed", p, nil, bounds, 0, 0, simtime.Time(60*ms))
	sus := detector.Suspicions(net.Sys.Trace())
	if len(sus) == 0 {
		t.Fatal("no suspicions with timeout < period")
	}
	restores := net.Sys.Trace().Named(detector.ActRestore)
	if len(restores) == 0 {
		t.Fatal("no restores despite continuing heartbeats")
	}
}

func TestSafeTimeoutFormulas(t *testing.T) {
	b := simtime.NewInterval(ms, 3*ms)
	if got := detector.SafeTimeoutTA(5*ms, b); got != 7*ms {
		t.Errorf("TA timeout = %v", got)
	}
	if got := detector.SafeTimeoutClock(5*ms, b, 500*us); got != 9*ms {
		t.Errorf("clock timeout = %v", got)
	}
}

func TestParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad params")
		}
	}()
	detector.New(detector.Params{Period: 0, Timeout: ms})
}
