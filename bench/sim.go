package main

import (
	"fmt"
	"runtime"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

// sim_models: the simulator alone. Algorithm S on 8 nodes with drifting
// clocks and link delays in [1, 3] ms, one closed-loop client per node
// (think 0–2 ms, 40 % writes), on the sequential default executor with a
// counting sink, in each of the paper's three models. The three systems
// advance round-robin by a fixed amount of simulated time per slice, each
// slice between calibration spins.
const (
	simNodes = 8
	simEps   = 200 * simtime.Microsecond
	simEll   = 100 * simtime.Microsecond // MMT step bound

	// simPinRounds is the round after which the exact event and operation
	// counts are read: a fixed simulated horizon, so they depend on the seed
	// and not on the host. Every run must get that far.
	simPinRounds = 8
	// simCheckHorizon is how far the sequential and 2-shard systems run
	// during set-up to compare their traces.
	simCheckHorizon = simtime.Time(300 * simtime.Millisecond)
)

// simModels lists the models with their slice widths in simulated time,
// sized so a slice holds ≈ 0.2 M events and takes ≈ 80 ms on the sizing
// host.
var simModels = []struct {
	name  string
	slice simtime.Duration
}{
	{"timed", 12 * simtime.Second},
	{"clock", 6 * simtime.Second},
	{"mmt", 2 * simtime.Second},
}

// simPins are the event and operation counts of seed 1 after
// simPinRounds rounds, per model in simModels order.
var simPins = [3][2]int{{2012651, 239864}, {1771851, 119855}, {1905906, 38716}}

// countSink counts events and does nothing else.
type countSink struct{ n int }

func (c *countSink) Observe(ta.Event)   { c.n++ }
func (c *countSink) Flush(simtime.Time) {}

// simSystem is one built system with its clients.
type simSystem struct {
	net     *core.Net
	clients []*workload.Client
	shards  int        // as asked of core.Config: -1 sequential
	events  *countSink // nil when built without a counting sink
}

func (s *simSystem) ops() int {
	done := 0
	for _, c := range s.clients {
		done += c.Done
	}
	return done
}

// buildSim assembles one model's system. shards is core.Config.Shards
// (-1: sequential); sink may be nil.
func buildSim(model string, seed int64, shards int, sink exec.Sink) (*simSystem, error) {
	bounds := simtime.NewInterval(1*simtime.Millisecond, 3*simtime.Millisecond)
	p := register.Params{C: simEps, Delta: 10 * simtime.Microsecond, D2: bounds.Hi + 2*simEps + 24*simEll, Epsilon: simEps}
	cfg := core.Config{
		N: simNodes, Bounds: bounds, Seed: seed*1000 + 100,
		Clocks: clock.DriftFactory(simEps, seed*1000+7), Shards: shards,
	}
	var net *core.Net
	switch model {
	case "timed":
		net = core.BuildTimed(cfg, register.Factory(register.NewS, p))
	case "clock":
		net = core.BuildClocked(cfg, register.Factory(register.NewS, p))
		for _, cn := range net.Clocked {
			cn.RecordStamps = false
		}
	case "mmt":
		cfg.Ell = simEll
		net = core.BuildMMT(cfg, register.Factory(register.NewS, p))
		for _, mn := range net.MMT {
			mn.RecordStamps = false
		}
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
	net.Sys.KeepTrace = false
	s := &simSystem{net: net, shards: shards}
	if sink != nil {
		net.Sys.AddSink(sink)
	}
	s.clients = workload.Attach(net, workload.Config{
		Ops:        1 << 30, // the window ends the run, not the clients
		Think:      simtime.NewInterval(0, 2*simtime.Millisecond),
		WriteRatio: 0.4,
		Seed:       seed*1000 + 12,
	})
	return s, nil
}

// buildCounted is buildSim with a counting sink.
func buildCounted(model string, seed int64, shards int) (*simSystem, error) {
	count := &countSink{}
	s, err := buildSim(model, seed, shards, count)
	if err != nil {
		return nil, err
	}
	s.events = count
	return s, nil
}

// run advances the system to until; a system built for shards that fell
// back to sequential execution is an error, not a measurement.
func (s *simSystem) run(until simtime.Time) error {
	if err := s.net.Sys.Run(until); err != nil {
		return err
	}
	if s.shards > 1 && !s.net.Sys.Sharded() {
		return fmt.Errorf("sharded execution did not engage (%s)", s.net.Sys.ShardFallbackReason())
	}
	return nil
}

// simLane is one measured system: where it stands and what its slices
// cost per event.
type simLane struct {
	sys      *simSystem
	horizon  simtime.Time
	perEvent calSeries
	events   int // of the last slice
	warmOps  int // completed before the window opened
}

// advance runs the lane's system one slice further, between spins. events is
// the slice's event count when the system cannot count its own (built
// without a sink); it is deterministic, so a twin's count serves.
func (l *simLane) advance(e *env, by simtime.Duration, events int, parent int, name string) error {
	ev0 := 0
	if l.sys.events != nil {
		ev0 = l.sys.events.n
	}
	l.horizon = l.horizon.Add(by)
	var err error
	took := e.slice(func() {
		s := e.tr.start(parent, name)
		err = l.sys.run(l.horizon)
		e.tr.finish(s)
	})
	if err != nil {
		return err
	}
	if l.sys.events != nil {
		events = l.sys.events.n - ev0
	}
	l.events = events
	l.perEvent.add(took, events)
	return nil
}

func runSim(e *env) (*result, error) {
	tr := e.tr
	r := newResult()
	setup := tr.start(e.root, "setup")

	// Output check: the 2-shard executor must reproduce the sequential
	// trace exactly on timed and clock (what the repository's differential
	// tests assert) and the operation count on mmt.
	s := tr.start(setup, "shard-vs-sequential")
	for _, m := range simModels {
		seqHash, shardHash := trace.NewHash(), trace.NewHash()
		seq, err := buildSim(m.name, e.seed, -1, seqHash)
		if err != nil {
			return nil, err
		}
		sharded, err := buildSim(m.name, e.seed, 2, shardHash)
		if err != nil {
			return nil, err
		}
		if err := seq.run(simCheckHorizon); err != nil {
			return nil, err
		}
		if err := sharded.run(simCheckHorizon); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		if m.name == "mmt" {
			r.check(seq.ops() == sharded.ops(), "mmt: 2-shard run completed %d ops, sequential %d", sharded.ops(), seq.ops())
		} else {
			r.check(seqHash.Sum64() == shardHash.Sum64() && seqHash.N == shardHash.N,
				"%s: 2-shard trace hash %x over %d events, sequential %x over %d", m.name, shardHash.Sum64(), shardHash.N, seqHash.Sum64(), seqHash.N)
		}
	}
	tr.finish(s)

	// The measured systems, and in a traced run their twins without a
	// sink (sink-chain cost by difference) and on 2 shards.
	var base, nosink, shard2 [3]*simLane
	s = tr.start(setup, "build+warmup")
	for i, m := range simModels {
		sys, err := buildCounted(m.name, e.seed, -1)
		if err != nil {
			return nil, err
		}
		base[i] = &simLane{sys: sys}
		if e.traced {
			if sys, err = buildSim(m.name, e.seed, -1, nil); err != nil {
				return nil, err
			}
			nosink[i] = &simLane{sys: sys}
			if sys, err = buildCounted(m.name, e.seed, 2); err != nil {
				return nil, err
			}
			shard2[i] = &simLane{sys: sys}
		}
		// Fixed-work warm-up: one slice, untimed.
		for _, l := range []*simLane{base[i], nosink[i], shard2[i]} {
			if l == nil {
				continue
			}
			l.horizon = l.horizon.Add(m.slice)
			if err := l.sys.run(l.horizon); err != nil {
				return nil, err
			}
			l.warmOps = l.sys.ops()
		}
	}
	tr.finish(s)
	r.set("bench.setup_busy_s", time.Since(processStart).Seconds())
	e.spinUntil(processStart.Add(e.workload.box))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.finish(setup)
	r.set("setup_s", time.Since(processStart).Seconds())

	window := tr.start(e.root, "window")
	deadline := time.Now().Add(e.window)
	rounds, events := 0, 0
	for rounds < simPinRounds || time.Now().Before(deadline) {
		for i, m := range simModels {
			if err := base[i].advance(e, m.slice, 0, window, "exec.Run:"+m.name); err != nil {
				return nil, err
			}
			events += base[i].events
			if !e.traced {
				continue
			}
			if err := nosink[i].advance(e, m.slice, base[i].events, window, "exec.Run:nosink_"+m.name); err != nil {
				return nil, err
			}
			if err := shard2[i].advance(e, m.slice, 0, window, "exec.Run:shard2_"+m.name); err != nil {
				return nil, err
			}
			events += nosink[i].events + shard2[i].events
		}
		rounds++
		if rounds == simPinRounds {
			for i, m := range simModels {
				ev, ops := base[i].sys.events.n, base[i].sys.ops()
				r.set("exec."+m.name+"_events", float64(ev))
				r.set("exec."+m.name+"_ops", float64(ops))
				if e.seed == 1 {
					r.check(ev == simPins[i][0] && ops == simPins[i][1],
						"%s: seed 1 gave %d events and %d ops after %d rounds, pinned %d and %d", m.name, ev, ops, simPinRounds, simPins[i][0], simPins[i][1])
				}
			}
		}
	}
	tr.finish(window)
	runtime.ReadMemStats(&ms1)

	for i, m := range simModels {
		r.attempted += base[i].sys.ops() - base[i].warmOps
		r.set("exec."+m.name+"_cal_ns_per_event", base[i].perEvent.calNS())
		r.set("exec."+m.name+"_raw_ns_per_event", base[i].perEvent.rawNS())
		if e.traced {
			r.set("exec.nosink_"+m.name+"_cal_ns_per_event", nosink[i].perEvent.calNS())
			r.set("exec.shard2_"+m.name+"_cal_ns_per_event", shard2[i].perEvent.calNS())
		}
	}
	if events > 0 {
		r.set("exec.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(events))
	}
	return r, nil
}
