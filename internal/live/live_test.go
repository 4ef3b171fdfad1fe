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

// ellBudget is the timer-service lateness budget ℓ the tests hold measured
// timer lateness to.
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
func driveRegister(t *testing.T, tr *MeshTransport, cf clock.Factory, nodes, totalOps int, eps, d2 simtime.Duration) (*register.Monitor, Measured) {
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

// envelope says whether a driveRegister run held the model its register
// was built for, so that a failed verdict names what broke: the engine,
// or the host's timing beneath it.
func envelope(eps, d2 simtime.Duration, m Measured) string {
	return Model{Eps: eps, D2: d2, Ell: ellBudget}.Envelope(m)
}

func opsFor(t *testing.T, full int) int {
	if testing.Short() {
		return full / 8
	}
	return full
}

// simModel is the model the driver's register and detector runs assume:
// the links [0, 2 ms] of the wall-clock tests, c = 1 ms (a read waits
// 2ε+c+δ = 1.5 ms, a write d'2−c = 1.4 ms), and a timer budget ℓ half the
// slack, so a wake the driver serves ℓ late on a clock running at half
// speed (the spread adversary's ramp) still lands inside ε + Slack. The
// window relaxation ε + Slack = 0.3 ms is well under both waits, so an S
// that skips either one fails the verdict.
var simModel = Model{Eps: 200 * us, D2: 2 * ms, Delta: 100 * us, C: ms, Ell: 50 * us, Slack: 100 * us}

// simRun is what one driver run of a register returned.
type simRun struct {
	out  Outcome
	m    Measured
	ops  int
	hash uint64
}

// simRegister runs f on len(clients) nodes with cf's clocks on a driver
// seeded with seed, client i invoking at node i until ops operations have
// completed. The run must complete them, hold simModel's envelope and pass
// live.Verdict with no violation.
func simRegister(t *testing.T, f core.AlgorithmFactory, cf clock.Factory, clients []ta.Automaton, ops int, seed int64) simRun {
	t.Helper()
	rt, err := New(Options{N: len(clients), Bounds: simModel.Bounds(), Clocks: cf}, f)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerdict(VerdictConfig{Model: simModel, Nodes: len(clients)})
	rt.AddSink(v)
	d := newSimDriver(t, rt, simModel, seed)
	for i, c := range clients {
		d.addClient(c, ta.NodeID(i))
	}
	completed := func() int { return v.mon.Reads.N + v.mon.Writes.N }
	finished := d.run(simtime.Time(60*simtime.Second), func() bool { return completed() >= ops })
	r := simRun{m: d.finish(), out: v.Finish(), ops: completed(), hash: d.hash.Sum64()}
	t.Logf("ops=%d states=%d ε̂=%v timer-late=%v delay=[%v,%v] held=%d simulated=%v",
		r.ops, r.out.States, r.m.Eps, r.m.TimerLate, r.m.DelayMin, r.m.DelayMax, r.m.Held, d.now)
	if !finished || r.ops != ops {
		t.Fatalf("completed %d of %d ops by %v", r.ops, ops, d.now)
	}
	if env := simModel.Envelope(r.m); env != "held" {
		t.Fatalf("driver run left the model: %s", env)
	}
	if r.out.Violations != 0 {
		t.Fatalf("verdict: %v", r.out.Messages)
	}
	return r
}

// closedLoop is one workload.Client per node, ops operations in all, 10 %
// writes, 0.8–1.8 ms of think time between a response and the next
// invocation.
func closedLoop(nodes, ops int, seed int64) []ta.Automaton {
	cs := make([]ta.Automaton, nodes)
	for i := range cs {
		cs[i] = workload.NewClient(ta.NodeID(i), workload.Config{
			Ops: ops / nodes, Think: simtime.NewInterval(800*us, 1800*us), WriteRatio: 0.10, Seed: seed,
		})
	}
	return cs
}

// simS is the transformed register S^c built for simModel.
func simS() core.AlgorithmFactory { return register.Factory(register.NewS, simModel.Params()) }

// TestLiveRegisterPerfectClock is half of the headline acceptance run: 10^4
// operations on four nodes with zero linearizability violations under
// perfect clocks.
func TestLiveRegisterPerfectClock(t *testing.T) {
	r := simRegister(t, simS(), clock.PerfectFactory(), closedLoop(4, 10_000, 1), 10_000, 1)
	if r.m.Eps != 0 {
		t.Fatalf("perfect clocks measured ε = %v, want 0", r.m.Eps)
	}
	if r.m.Messages == 0 || r.m.DelayMax == 0 {
		t.Fatalf("no delays measured: %+v", r.m)
	}
	// Equal clocks tag every frame at or below the receiver's clock on
	// arrival, so the receive buffer holds none of them.
	if r.m.Held != 0 {
		t.Fatalf("perfect clocks held %d of %d frames, want 0", r.m.Held, r.m.Messages)
	}
}

// TestLiveRegisterFixedOffsetClock is the other half: the same run under
// the maximal fixed-skew adversary (even nodes +ε, odd nodes −ε).
func TestLiveRegisterFixedOffsetClock(t *testing.T) {
	r := simRegister(t, simS(), clock.SpreadFactory(simModel.Eps), closedLoop(4, 10_000, 2), 10_000, 2)
	// Skewed clocks must actually exercise the receive buffer: a fast
	// sender's tag runs ahead of a slow receiver's clock.
	if r.m.Held == 0 {
		t.Fatal("fixed-offset run never held a delivery; R_ji,ε untested")
	}
}

// TestLiveRegisterJitterClock checks the drift adversary: violation-free
// with the measured offset within the configured ε (which the envelope
// check asserts).
func TestLiveRegisterJitterClock(t *testing.T) {
	simRegister(t, simS(), clock.DriftFactory(simModel.Eps, 11), closedLoop(4, 10_000, 3), 10_000, 3)
}

// TestSimDriverSameSeedSameTrace: the driver is a function of its seed.
// Scripted clients invoke on one fixed schedule (a 2.5 ms spacing clears
// the 1.5 ms read and 1.4 ms write), so the trace varies only with the
// driver's draws: one seed run twice gives the same trace hash, another
// seed another.
func TestSimDriverSameSeedSameTrace(t *testing.T) {
	const nodes, perNode = 3, 500
	run := func(seed int64) simRun {
		clients := make([]ta.Automaton, nodes)
		for i := range clients {
			script := workload.MakeScript(perNode, simtime.Zero.Add(simtime.Duration(i)*700*us), 2500*us, 0.2, int64(i))
			clients[i] = workload.NewScripted(ta.NodeID(i), script)
		}
		r := simRegister(t, simS(), clock.DriftFactory(simModel.Eps, 5), clients, nodes*perNode, seed)
		for _, c := range clients {
			if err := c.(*workload.ScriptedClient).Err; err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	a, b, c := run(7), run(7), run(8)
	if a.hash != b.hash || a.m != b.m {
		t.Fatalf("seed 7 twice: traces %x and %x, measured %+v and %+v", a.hash, b.hash, a.m, b.m)
	}
	if a.hash == c.hash {
		t.Fatalf("seeds 7 and 8 gave one trace %x", a.hash)
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
		t.Fatalf("online linearizability violated over TCP: %s (envelope %s)", res.Reason, envelope(eps, 10*ms, m))
	}
	if m.Messages == 0 {
		t.Fatal("no messages crossed the TCP transport")
	}
}

// TestSameProgramBothWorlds is the no-fork criterion: one
// register.Factory value runs under the simulator (core.BuildClocked +
// exec) and on the live node, and both executions linearize.
func TestSameProgramBothWorlds(t *testing.T) {
	eps := simModel.Eps
	factory := simS()

	// Simulated world.
	net := core.BuildClocked(core.Config{N: 3, Bounds: simModel.Bounds(), Seed: 7, Clocks: clock.DriftFactory(eps, 7)}, factory)
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
	simRegister(t, factory, clock.DriftFactory(eps, 7), closedLoop(3, 120, 7), 120, 7)
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

// TestLiveDetector runs the §1/E15 heartbeat failure detector on the live
// node: node 0 sends three heartbeats and goes silent; with the
// clock-model-safe timeout plus the driver's lateness budget the peers
// suspect node 0 and nobody else, and never restore it.
func TestLiveDetector(t *testing.T) {
	m := simModel
	m.D2 = 5 * ms
	period := 20 * ms
	timeout := detector.SafeTimeoutClock(period, m.Bounds(), m.Eps) + 2*m.Ell
	factory := func(id ta.NodeID, n int) core.Algorithm {
		p := detector.Params{Period: period, Timeout: timeout}
		if id == 0 {
			p.Heartbeats = 3
		}
		return detector.New(p)
	}
	sink := &eventSink{}
	rt, err := New(Options{N: 3, Bounds: m.Bounds(), Clocks: clock.DriftFactory(m.Eps, 5)}, factory)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSink(sink)
	d := newSimDriver(t, rt, m, 1)
	// Node 0 beats at 0, π, 2π then stops; peers time out one period plus
	// timeout later. Run on past that, so a late or false suspicion shows.
	d.run(simtime.Time(5*period+2*timeout), nil)
	meas := d.finish()
	suspects := sink.named(detector.ActSuspect)
	if len(suspects) != 2 {
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
	if env := m.Envelope(meas); env != "held" {
		t.Fatalf("driver run left the model: %s", env)
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
	rt, err := New(Options{N: 3, Bounds: bounds, Clocks: clock.SpreadFactory(eps)}, register.Factory(register.NewS, p))
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
