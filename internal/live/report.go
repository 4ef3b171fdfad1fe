package live

import (
	"encoding/json"
	"os"
	"time"

	"psclock/internal/simtime"
)

// ReportCore is what every live run reports, whatever hosted it: who ran
// (identity and the configuration that shapes throughput), the load
// generator's throughput and latency percentiles, the model parameters
// configured against what was measured, the frame counters, and the
// online verdict. live.Report (pscserve) and fleet.Report (pscfleet) embed
// it, so their -json documents share these keys by construction.
type ReportCore struct {
	Nodes   int `json:"nodes"`
	Clients int `json:"clients"`
	// Registers is the independent register instances served; Tiers is the
	// per-register tier configuration string ("" for an untiered run).
	Registers int    `json:"registers,omitempty"`
	Tiers     string `json:"tiers,omitempty"`
	Clock     string `json:"clock"`
	Seed      int64  `json:"seed"`
	// GOMAXPROCS is the parallelism the run had: the live runtime's
	// throughput depends on it. For a fleet it is the plane's; each daemon
	// is its own process.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	DurationMS float64 `json:"duration_ms"`
	Ops        int     `json:"ops"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	ReadP50US  float64 `json:"read_p50_us"`
	ReadP99US  float64 `json:"read_p99_us"`
	WriteP50US float64 `json:"write_p50_us"`
	WriteP99US float64 `json:"write_p99_us"`

	EpsConfigUS   float64 `json:"eps_config_us"`
	EpsMeasuredUS float64 `json:"eps_measured_us"`
	D1ConfigUS    float64 `json:"d1_config_us"`
	D2ConfigUS    float64 `json:"d2_config_us"`
	// Envelope is Model.Envelope over the run: "held", or which of the
	// model's assumptions (ε̂ ≤ ε, no frame past d2, timer lateness ≤ ℓ) the
	// run exceeded and by how much. Report-only; Pass does not read it.
	Envelope string `json:"envelope"`

	Messages        int `json:"messages"`
	Held            int `json:"held"`
	DelayViolations int `json:"delay_violations"`
	// Reconnects counts transport link re-dials over the run: healed
	// failures, reported rather than fatal (a loopback run has zero).
	Reconnects int `json:"reconnects,omitempty"`

	// Violations counts online check failures (sticky: 0 or 1 per check);
	// CheckStates is the online checker's search size.
	Violations  int `json:"violations"`
	CheckStates int `json:"check_states"`
	// RecorderDrops counts events the recorder discarded after shutdown
	// (summed over daemons in a fleet); a clean run asserts zero (Pass
	// requires it).
	RecorderDrops int  `json:"recorder_drops"`
	Pass          bool `json:"pass"`
}

// SetLoad fills the throughput and latency fields from the load
// generator's result over the wall time the load ran.
func (c *ReportCore) SetLoad(res LoadResult, wall time.Duration) {
	us := func(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }
	c.DurationMS = float64(wall.Microseconds()) / 1e3
	c.Ops, c.Reads, c.Writes = res.Ops, res.Reads, res.Writes
	c.OpsPerSec = float64(res.Ops) / wall.Seconds()
	c.ReadP50US, c.ReadP99US = us(res.ReadLat.P50), us(res.ReadLat.P99)
	c.WriteP50US, c.WriteP99US = us(res.WriteLat.P50), us(res.WriteLat.P99)
}

// Report is the machine-readable outcome of a pscserve run, the document
// pscserve -json writes. Beyond the core it records the single-process
// specifics: the pipeline shape, the transport, timer lateness and the
// measured delay interval, and the per-tier split.
type Report struct {
	ReportCore
	// Pipeline is the per-client in-flight bound (0/1: closed loop).
	Pipeline  int    `json:"pipeline,omitempty"`
	Transport string `json:"transport"`

	// TierLin and TierSeq split the run per consistency tier, and
	// ReadDiscountUS is the seq tier's measured read saving — lin read
	// p50 − seq read p50, the 2ε the lin tier pays for linearizability
	// (Lemmas 6.1/6.2).
	TierLin        *TierReport `json:"tier_lin,omitempty"`
	TierSeq        *TierReport `json:"tier_seq,omitempty"`
	ReadDiscountUS float64     `json:"read_discount_us,omitempty"`

	// PipelineDepthMean is the mean in-flight occupancy pipelined clients
	// sampled at issue time (Little's-law cross-check against ops/s ×
	// latency); PerRegOps counts completed operations per register.
	PipelineDepthMean float64 `json:"pipeline_depth_mean,omitempty"`
	PerRegOps         []int   `json:"per_reg_ops,omitempty"`

	EllConfigUS    float64 `json:"ell_config_us"`
	TimerLateUS    float64 `json:"timer_late_us"`
	TimerLateP50US float64 `json:"timer_late_p50_us"`
	TimerLateP99US float64 `json:"timer_late_p99_us"`
	DelayMinUS     float64 `json:"delay_min_us"`
	DelayMaxUS     float64 `json:"delay_max_us"`
}

// TierReport is one consistency tier's slice of a mixed-tier run: its
// registers, its share of the load with per-tier latency percentiles, and
// its own online verification verdict (each tier is checked against its
// own specification — linearizability for lin, sequential consistency for
// seq — by each register's own automaton in the keyed checker).
type TierReport struct {
	Registers int `json:"registers"`
	Ops       int `json:"ops"`
	Reads     int `json:"reads"`
	Writes    int `json:"writes"`

	ReadP50US  float64 `json:"read_p50_us"`
	ReadP99US  float64 `json:"read_p99_us"`
	WriteP50US float64 `json:"write_p50_us"`
	WriteP99US float64 `json:"write_p99_us"`

	Violations  int `json:"violations"`
	CheckStates int `json:"check_states"`
}

// WriteReport writes r (a *Report, or pscfleet's fleet.Report, which is
// why r is any JSON-marshalable value) to path as one indented JSON
// document: the run's whole report, replacing whatever the file held.
func WriteReport(path string, r any) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
