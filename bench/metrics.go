package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// The benchmark's metric table: BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds (a test compares the
// two), and README.md explains each.

// metricDef describes one metric.
type metricDef struct {
	Name, Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
	// Moves names the end-to-end metric (and workload) a per-layer metric
	// should move.
	Moves string
}

// endToEnd is reported by every workload of a gated (-trace 0) run. The
// benchmark contract wants one set of end-to-end metrics that every
// workload reports, and the six workloads do not share one: a live
// workload has latencies, the simulator a cost per event in each model,
// the verifier a cost per operation in each checker, the fleet a recovery
// time. So besides setup_s there are three gated costs, and each workload
// says which of its own figures — a per-layer metric, by its own name —
// each one carries (workloadDef.Gates; README.md has the table). All are
// in µs so that one unit serves. The bound is what an unpaired comparison
// of medians must tolerate on a shared host, whose bad minutes moved
// identical code by 17 % (README.md, Steadiness); smaller changes are
// resolved with alternating pairs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cost_a_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cost_b_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cost_c_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// gateNames are the end-to-end metrics a workload's Gates fill, in order.
var gateNames = [3]string{"cost_a_us", "cost_b_us", "cost_c_us"}

// toMicros converts a value in one of the table's time units to µs.
var toMicros = map[string]float64{"ns": 1e-3, "us": 1, "ms": 1e3}

const (
	movesLat    = "cost_a_us/cost_b_us/cost_c_us (read p50, write p50, write p95) on the live workloads"
	movesRead   = "cost_a_us (read p50) on closed_floor first, then pipe_read"
	movesWrite  = "cost_b_us/cost_c_us (write p50/p95) on pipe_write, and its live.proc.cpu_us_per_op"
	movesCheck  = "live.proc.cpu_us_per_op on pipe_read (not gated); cost_c_us (write p95) only if the cores saturate"
	movesCPU    = "no gated cost: CPU per operation of the live runtime is bimodal at partial load (README.md, Bounds)"
	movesSim    = "cost_a_us/cost_b_us/cost_c_us (timed/clock/mmt) on sim_models"
	movesReplay = "cost_a_us/cost_b_us/cost_c_us (exact/approx/2-shard) on check_replay"
	movesFleet  = "cost_c_us (recovery) and cost_a_us/cost_b_us on fleet_crash"
	movesNone   = "none (describes the run)"
)

// perLayer is reported by every workload of a traced (-trace 1) run; a
// metric of a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{Name: "live.client.read_p50_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.write_p50_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.read_p95_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.read_p99_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.write_p95_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.write_p99_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.read_over_floor_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.write_over_floor_us", Unit: "us", Better: "lower", Moves: movesLat},
	{Name: "live.client.ops_per_s", Unit: "1/s", Better: "higher", Moves: movesLat},
	{Name: "live.client.achieved_ratio", Unit: "ratio", Better: "higher", Moves: movesLat},
	{Name: "live.client.pipeline_depth_mean", Unit: "count", Better: "lower", Moves: movesLat},
	{Name: "live.node.read_service_p50_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "live.node.write_service_p50_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "live.wire.read_p50_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "live.wire.write_p50_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "live.transport.frames", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "live.transport.frames_per_op", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "live.transport.held", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "live.transport.delay_max_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "live.transport.past_d2", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "live.runtime.timer_late_max_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "live.runtime.eps_hat_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "live.recorder.lag_p50_us", Unit: "us", Better: "lower", Moves: movesCheck},
	{Name: "live.recorder.lag_p99_us", Unit: "us", Better: "lower", Moves: movesCheck},
	{Name: "live.recorder.drops", Unit: "count", Better: "lower", Moves: movesCheck},
	{Name: "register.monitor_busy_ns_per_event", Unit: "ns", Better: "lower", Moves: movesCheck},
	{Name: "linearize.busy_ns_per_op", Unit: "ns", Better: "lower", Moves: movesCheck},
	{Name: "linearize.finish_ms", Unit: "ms", Better: "lower", Moves: movesCheck},
	{Name: "linearize.states_per_op", Unit: "count", Better: "lower", Moves: movesCheck},
	{Name: "live.proc.cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesCPU},
	{Name: "live.proc.cpu_user_s", Unit: "s", Better: "lower", Moves: movesCPU},
	{Name: "live.proc.cpu_sys_s", Unit: "s", Better: "lower", Moves: movesCPU},
	{Name: "live.proc.gc_cycles", Unit: "count", Better: "lower", Moves: movesCPU},
	{Name: "live.proc.heap_peak_bytes", Unit: "bytes", Better: "lower", Moves: movesCPU},
	{Name: "live.proc.allocs_per_op", Unit: "count", Better: "lower", Moves: movesCPU},
	{Name: "exec.timed_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.clock_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.mmt_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.timed_events", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "exec.clock_events", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "exec.mmt_events", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "exec.timed_ops", Unit: "count", Better: "higher", Moves: movesSim},
	{Name: "exec.clock_ops", Unit: "count", Better: "higher", Moves: movesSim},
	{Name: "exec.mmt_ops", Unit: "count", Better: "higher", Moves: movesSim},
	{Name: "exec.timed_raw_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.clock_raw_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.mmt_raw_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.nosink_timed_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.nosink_clock_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.nosink_mmt_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.shard2_timed_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.shard2_clock_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.shard2_mmt_cal_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "exec.allocs_per_event", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "linearize.exact_cal_ns_per_op", Unit: "ns", Better: "lower", Moves: movesReplay},
	{Name: "linearize.approx_cal_ns_per_op", Unit: "ns", Better: "lower", Moves: movesReplay},
	{Name: "linearize.shard2_cal_ns_per_op", Unit: "ns", Better: "lower", Moves: movesReplay},
	{Name: "linearize.exact_states", Unit: "count", Better: "lower", Moves: movesReplay},
	{Name: "linearize.approx_states", Unit: "count", Better: "lower", Moves: movesReplay},
	{Name: "linearize.approx_pruned", Unit: "count", Better: "higher", Moves: movesReplay},
	{Name: "linearize.alloc_bytes_per_op", Unit: "bytes", Better: "lower", Moves: movesReplay},
	{Name: "fleet.recovery_ms", Unit: "ms", Better: "lower", Moves: movesFleet},
	{Name: "fleet.recovery_max_ms", Unit: "ms", Better: "lower", Moves: movesFleet},
	{Name: "fleet.spawn_ready_ms", Unit: "ms", Better: "lower", Moves: "setup_s on fleet_crash"},
	{Name: "fleet.restarts", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.suspects", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.restores", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.merged_events", Unit: "count", Better: "higher", Moves: movesFleet},
	{Name: "fleet.clamped", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.past_d2", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.reconnects", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "fleet.load_shortfall_ops", Unit: "count", Better: "lower", Moves: movesFleet},
	{Name: "bench.cal_ns_p50", Unit: "ns", Better: "lower", Moves: movesNone},
	{Name: "bench.cal_ns_iqr", Unit: "ns", Better: "lower", Moves: movesNone},
	{Name: "bench.setup_busy_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "bench.attempts", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "bench.num_cpu", Unit: "count", Better: "higher", Moves: movesNone},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher", Moves: movesNone},
}

// workloadDef is one row of the benchmark's workload table.
type workloadDef struct {
	Name string
	// Why is the reason the workload exists and what its three gated costs
	// are (BENCHMARK.json carries the same sentence).
	Why string
	run func(*env) (*result, error)
	// box is the wall time from process start at which the timed window
	// opens: build and fixed-work warm-up first, then warm-up load or
	// calibration spins until the box is full, so that the CPU-bound share
	// of set-up (bench.setup_busy_s) is a small part of setup_s. A set-up
	// that overruns the box shows as a longer setup_s.
	box time.Duration
	// Gates names the per-layer metrics a gated run reports as cost_a_us,
	// cost_b_us and cost_c_us: figures the workload measures with tracing
	// off, each of which moves when the layer the workload isolates does.
	Gates [3]string
	// overhead names the CPU cost whose traced-to-gated ratio is
	// bench.trace_overhead_ratio.
	overhead string
	// repeat marks the workloads whose output checks the host can fail: the
	// verdict allows ε plus a few milliseconds of scheduling slack, a
	// pacing check a share of the offered load, and a shared host now and
	// then stalls a process for longer (5 of 400 live runs one evening, all
	// in minutes in which the timings were off too). A broken program fails
	// every run, a stalled one does not: a run of these workloads that fails
	// its checks is run once more, in a fresh process so that its set-up is
	// timed like any other, and the second result stands
	// (bench.attempts = 2). The simulator and the verifier are
	// deterministic, so their failures are final.
	repeat bool
}

// workloads lists the six workloads in report order.
var workloads = []workloadDef{
	{
		Name: "closed_floor", run: runLive, box: 2 * time.Second,
		Why:      "1 register, 2 paced closed-loop clients, nothing queues: only fixed per-op cost above the paper's floor can move. cost a/b/c = read p50, write p50, write p95",
		Gates:    [3]string{"live.client.read_p50_us", "live.client.write_p50_us", "live.client.write_p95_us"},
		overhead: "live.proc.cpu_us_per_op", repeat: true,
	},
	{
		Name: "pipe_read", run: runLive, box: 2 * time.Second,
		Why:      "64 zipf registers, 2 open-loop clients x 32 in flight, 10% writes: batching, recorder merge and checker do the work, reads send no frames. cost a/b/c = read p50, write p50, write p95",
		Gates:    [3]string{"live.client.read_p50_us", "live.client.write_p50_us", "live.client.write_p95_us"},
		overhead: "live.proc.cpu_us_per_op", repeat: true,
	},
	{
		Name: "pipe_write", run: runLive, box: 2 * time.Second,
		Why:      "same pipeline at 50% writes inside the d2 envelope: UPDATE broadcast, gob frames and receive holds dominate. cost a/b/c = read p50, write p50, write p95",
		Gates:    [3]string{"live.client.read_p50_us", "live.client.write_p50_us", "live.client.write_p95_us"},
		overhead: "live.proc.cpu_us_per_op", repeat: true,
	},
	{
		Name: "sim_models", run: runSim, box: 2 * time.Second,
		Why:      "the simulator alone: algorithm S on 8 nodes in fixed-work slices; exec/core do all the work, live none. cost a/b/c = calibrated CPU per event in the timed, clock, MMT model",
		Gates:    [3]string{"exec.timed_cal_ns_per_event", "exec.clock_cal_ns_per_event", "exec.mmt_cal_ns_per_event"},
		overhead: "exec.timed_cal_ns_per_event",
	},
	{
		Name: "check_replay", run: runReplay, box: 2 * time.Second,
		Why:      "the verifier alone: one captured 8-register history replayed; linearize does all the work. cost a/b/c = calibrated CPU per op of the exact, eps-approximate, exact 2-shard checker",
		Gates:    [3]string{"linearize.exact_cal_ns_per_op", "linearize.approx_cal_ns_per_op", "linearize.shard2_cal_ns_per_op"},
		overhead: "linearize.exact_cal_ns_per_op",
	},
	{
		Name: "fleet_crash", run: runFleet, box: 3 * time.Second, // spawns processes
		Why:      "3 pscnode processes under 4 SIGKILLs with auto-replacement: the only workload with mesh transport, fan-in merge and faults. cost a/b/c = read p50, write p50, median kill-to-replaced time",
		Gates:    [3]string{"live.client.read_p50_us", "live.client.write_p50_us", "fleet.recovery_ms"},
		overhead: "live.proc.cpu_us_per_op", repeat: true,
	},
}

// label is a metric's name as the tables print it: a gated cost with the
// figure it carries on this workload.
func (w workloadDef) label(metric string) string {
	for i, g := range gateNames {
		if g == metric {
			return metric + " = " + w.Gates[i]
		}
	}
	return metric
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// allMetrics lists every metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// unitOf returns the unit of a metric in the table, "" for any other name.
func unitOf(name string) string {
	for _, d := range allMetrics() {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	// problems lists every failed output check; the run is correct iff it
	// is empty.
	problems []string
	m        map[string]float64
}

func newResult() *result { return &result{m: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.m[name] = v }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed output check unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// checkFailed opens each line that reports a failed output check.
const checkFailed = "CHECK FAILED:"

// line is the last line of a run's standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every measured metric by name with its unit, then the
// failed checks, then the JSON line: the end-to-end metrics of a gated
// run, the per-layer metrics of a traced one.
func (r *result) report(w io.Writer, traced bool) error {
	units := make(map[string]string)
	for _, d := range allMetrics() {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		if _, known := units[name]; !known {
			return fmt.Errorf("metric %q is not in the table", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %18.6f %s\n", name, r.m[name], units[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s %s\n", checkFailed, p)
	}
	out := line{
		Correct:   len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]lineMetric),
	}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		out.Metrics[d.Name] = lineMetric{Value: r.m[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
