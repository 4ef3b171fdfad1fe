package live

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// ellBudget is the timer-service lateness budget ℓ the runtime reports
// against (report-only; the measured maximum shows whether it held).
const ellBudget = 5 * ms

// widenSlack is the real-scheduling slack the online check budgets beyond
// ε. Algorithm S already pays for clock uncertainty (reads cost 2ε+c+δ),
// so the check's Widen only needs ε plus the slop live execution adds:
// late timer wakeups shifting update application and samples. Kept small
// on purpose — the checker's frontier is exponential in window overlap,
// so widening must stay below the op spacing.
const widenSlack = 800 * us

// checkWiden is the window relaxation the gating check grants: ε plus the
// scheduling slack, stretched under the race detector.
func checkWiden(eps simtime.Duration) simtime.Duration {
	return eps + widenSlack*raceScale
}

// think sleeps a client between operations; see driveRegister.
func think(rng *rand.Rand) {
	time.Sleep(time.Duration(800+rng.Intn(1000)) * time.Microsecond * raceScale)
}

// liveParams are the register parameters the live tests run: designed
// link bounds [0, d2] widened to d'2 = d2 + 2ε per Theorem 4.7.
func liveParams(eps, d2 simtime.Duration) (register.Params, simtime.Interval) {
	bounds := simtime.NewInterval(0, d2)
	return register.Params{C: 0, Delta: 100 * us, D2: d2 + 2*eps, Epsilon: eps}, bounds
}

// driveRegister runs the transformed register S^c on a live runtime under
// closed-loop clients (one per node, alternation by construction) and
// returns the monitor and measured bounds. totalOps is split across nodes.
func driveRegister(t *testing.T, tr Transport, cf clock.Factory, nodes, totalOps int, eps, d2 simtime.Duration) (*register.Monitor, Measured) {
	t.Helper()
	p, bounds := liveParams(eps, d2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	mon := register.NewMonitor()
	mon.AddCheck("live", linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        checkWiden(eps),
		AssumeUnique: true,
		MaxStates:    32 << 20,
	})
	rt, err := New(Options{
		N:         nodes,
		Bounds:    bounds,
		Ell:       ellBudget,
		Clocks:    cf,
		Transport: tr,
	}, register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(mon)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	perClient := totalOps / nodes
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := make(chan wireResp, 1) // closed loop: one response owed at a time
			rng := rand.New(rand.NewSource(41 + int64(i)))
			for k := 0; k < perClient; k++ {
				var payload any
				op := register.ActRead
				if rng.Float64() < 0.10 {
					op = register.ActWrite
					payload = register.Value{Writer: ta.NodeID(i), Seq: k}
				}
				if err := rt.invoke(ta.NodeID(i), invocation{name: op, payload: payload, to: resp}); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				select {
				case <-resp:
				case <-time.After(10 * time.Second):
					t.Errorf("client %d: no response to op %d", i, k)
					return
				}
				// Think time keeps op spacing above the check's Widen so the
				// frontier's window overlap — and with it the state count —
				// stays bounded; the loop remains closed.
				think(rng)
			}
		}()
	}
	wg.Wait()
	m := rt.Stop()
	return mon, m
}

func opsFor(t *testing.T, full int) int {
	if testing.Short() {
		return full / 8
	}
	return full
}

// TestLiveRegisterPerfectClock is half of the headline acceptance run: a
// loopback execution of ≥ 10^4 operations with zero online
// linearizability violations under perfect clocks.
func TestLiveRegisterPerfectClock(t *testing.T) {
	total := opsFor(t, 10_000)
	mon, m := driveRegister(t, nil, clock.PerfectFactory(), 4, total, 200*us, 2*ms)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	res := mon.Verdict("live")
	if !res.OK {
		t.Fatalf("online linearizability violated: %s", res.Reason)
	}
	t.Logf("ops=%d states=%d measured ε=%v timer-late=%v delay=[%v,%v]",
		mon.Reads.N+mon.Writes.N, res.States, m.Eps, m.TimerLate, m.DelayMin, m.DelayMax)
	if got := mon.Reads.N + mon.Writes.N; got < total-8 {
		t.Fatalf("completed %d ops, want ≥ %d", got, total-8)
	}
	if m.Eps != 0 {
		t.Fatalf("perfect clocks measured ε = %v, want 0", m.Eps)
	}
	if m.Messages == 0 || m.DelayMax == 0 {
		t.Fatalf("no delays measured: %+v", m)
	}
}

// TestLiveRegisterFixedOffsetClock is the other half: the same run under
// the maximal fixed-skew adversary (even nodes +ε, odd nodes −ε).
func TestLiveRegisterFixedOffsetClock(t *testing.T) {
	eps := 200 * us
	total := opsFor(t, 10_000)
	mon, m := driveRegister(t, nil, clock.SpreadFactory(eps), 4, total, eps, 2*ms)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if res := mon.Verdict("live"); !res.OK {
		t.Fatalf("online linearizability violated: %s", res.Reason)
	}
	if m.Eps > eps {
		t.Fatalf("measured ε = %v exceeds configured %v", m.Eps, eps)
	}
	// Skewed clocks must actually exercise the receive buffer: a fast
	// sender's tag runs ahead of a slow receiver's clock.
	if m.Held == 0 {
		t.Fatal("fixed-offset run never held a delivery; R_ji,ε untested")
	}
}

// TestLiveRegisterJitterClock checks the drift adversary: violation-free
// whenever the measured offset stays within the configured ε (which the
// model construction guarantees, and the run verifies).
func TestLiveRegisterJitterClock(t *testing.T) {
	eps := 200 * us
	mon, m := driveRegister(t, nil, clock.DriftFactory(eps, 11), 4, opsFor(t, 3_000), eps, 2*ms)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if m.Eps > eps {
		t.Fatalf("measured ε = %v exceeds configured %v", m.Eps, eps)
	}
	if res := mon.Verdict("live"); !res.OK {
		t.Fatalf("measured offset %v ≤ ε %v yet linearizability violated: %s", m.Eps, eps, res.Reason)
	}
}

// TestLiveRegisterTCP runs the register over the length-prefixed TCP
// transport: same algorithm, same checks, real sockets.
func TestLiveRegisterTCP(t *testing.T) {
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := 200 * us
	mon, m := driveRegister(t, tr, clock.DriftFactory(eps, 3), 3, opsFor(t, 1_200), eps, 10*ms)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if res := mon.Verdict("live"); !res.OK {
		t.Fatalf("online linearizability violated over TCP: %s", res.Reason)
	}
	if m.Messages == 0 {
		t.Fatal("no messages crossed the TCP transport")
	}
}

// TestSameProgramBothWorlds is the no-fork criterion: one
// register.Factory value runs under the simulator (core.BuildClocked +
// exec) and under the live runtime, and both executions linearize.
func TestSameProgramBothWorlds(t *testing.T) {
	eps := 200 * us
	p, bounds := liveParams(eps, 2*ms)
	factory := register.Factory(register.NewS, p)

	// Simulated world.
	net := core.BuildClocked(core.Config{N: 3, Bounds: bounds, Seed: 7, Clocks: clock.DriftFactory(eps, 7)}, factory)
	clients := workload.Attach(net, workload.Config{Ops: 12, Think: simtime.NewInterval(0, ms), WriteRatio: 0.3, Seed: 9})
	if _, err := net.Sys.RunQuiet(simtime.Time(60 * simtime.Second)); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if c.Done != 12 {
			t.Fatalf("sim client %s finished %d/12 ops", c.Name(), c.Done)
		}
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		t.Fatal(err)
	}
	if res := linearize.CheckLinearizable(ops, register.Initial.String()); !res.OK {
		t.Fatalf("simulated run not linearizable: %s", res.Reason)
	}

	// Live world — the same factory value, no algorithm-code fork.
	mon, _ := driveRegister(t, nil, clock.DriftFactory(eps, 7), 3, 120, eps, 2*ms)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if res := mon.Verdict("live"); !res.OK {
		t.Fatalf("live run not linearizable: %s", res.Reason)
	}
}

// eventSink captures the observable stream for assertions. The recorder
// serializes Observe; the mutex covers the test goroutine's reads.
type eventSink struct {
	mu     sync.Mutex
	events []ta.Event
}

func (s *eventSink) Observe(e ta.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) Flush(simtime.Time) {}

func (s *eventSink) named(name string) []ta.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ta.Event
	for _, e := range s.events {
		if e.Action.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// TestLiveDetector runs the §1/E15 heartbeat failure detector live: node 0
// sends three heartbeats and goes silent; with the clock-model-safe
// timeout (plus a real-scheduling margin) the peers suspect node 0 and
// nobody else, and never restore it.
func TestLiveDetector(t *testing.T) {
	eps := 200 * us
	period := 20 * ms
	bounds := simtime.NewInterval(0, 5*ms)
	timeout := detector.SafeTimeoutClock(period, bounds, eps) + 2*ellBudget
	factory := func(id ta.NodeID, n int) core.Algorithm {
		p := detector.Params{Period: period, Timeout: timeout}
		if id == 0 {
			p.Heartbeats = 3
		}
		return detector.New(p)
	}
	sink := &eventSink{}
	rt, err := New(Options{N: 3, Bounds: bounds, Ell: ellBudget, Clocks: clock.DriftFactory(eps, 5)}, factory)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(sink)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Node 0 beats at 0, π, 2π then stops; peers time out one period plus
	// timeout later. Poll rather than sleep a worst case.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(sink.named(detector.ActSuspect)) >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := rt.Stop()
	suspects := sink.named(detector.ActSuspect)
	if len(suspects) < 2 {
		t.Fatalf("got %d suspicions, want 2 (both peers suspect node 0)", len(suspects))
	}
	by := map[ta.NodeID]bool{}
	for _, e := range suspects {
		if of := e.Action.Payload.(ta.NodeID); of != 0 {
			t.Fatalf("node %v falsely suspected live node %v", e.Action.Node, of)
		}
		by[e.Action.Node] = true
	}
	if !by[1] || !by[2] {
		t.Fatalf("suspicions came from %v, want both n1 and n2", by)
	}
	if restores := sink.named(detector.ActRestore); len(restores) != 0 {
		t.Fatalf("dead node restored: %v", restores)
	}
	if m.Eps > eps {
		t.Fatalf("measured ε = %v exceeds configured %v", m.Eps, eps)
	}
}

// TestServerLoadGen exercises the full pscserve path in-process: TCP
// client ingress, closed-loop load generation, online monitoring.
func TestServerLoadGen(t *testing.T) {
	eps := 200 * us
	p, bounds := liveParams(eps, 2*ms)
	mon := register.NewMonitor()
	mon.AddCheck("live", linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        checkWiden(eps),
		AssumeUnique: true,
	})
	rt, err := New(Options{N: 3, Bounds: bounds, Ell: ellBudget, Clocks: clock.SpreadFactory(eps)}, register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(mon)
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	res := RunLoad(srv.Addrs(), LoadConfig{
		Clients:    3,
		Duration:   400 * time.Millisecond,
		Rate:       250 / float64(raceScale), // paced: keeps op spacing above the check's Widen
		WriteRatio: 0.15,
		Seed:       1,
	})
	srv.Close()
	rt.Stop()
	if res.Errors != 0 {
		t.Fatalf("load generator saw %d errors", res.Errors)
	}
	if res.Ops == 0 {
		t.Fatal("load generator completed no operations")
	}
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	if v := mon.Verdict("live"); !v.OK {
		t.Fatalf("online linearizability violated under served load: %s", v.Reason)
	}
	if got := mon.Reads.N + mon.Writes.N; got != res.Ops {
		t.Fatalf("monitor completed %d ops, load generator %d", got, res.Ops)
	}
}
