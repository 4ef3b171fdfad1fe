package fleet

import "psclock/internal/live"

// Report is the machine-readable outcome of a pscfleet run, the document
// pscfleet -json writes. It extends the live report core with the fleet's
// process-level story — crashes commanded and restarts performed, detector
// SUSPECT/RESTORE counts, per-fault chaos classifications — and splits the
// core's checker Violations into explained (a crash or partition occurred,
// so in-flight operations and updates were lost outside the paper's model)
// and unexplained (a real regression).
type Report struct {
	live.ReportCore

	// DetPeriodUS and DetTimeoutUS are the heartbeat detector's effective
	// period and timeout: what the daemons ran, derived where a flag was
	// left at zero.
	DetPeriodUS  float64 `json:"det_period_us"`
	DetTimeoutUS float64 `json:"det_timeout_us"`

	// FramesDropped counts inter-node frames a partition cut plus sends
	// that found their link's queue full.
	FramesDropped int64 `json:"frames_dropped"`

	// ChaosScript is the expanded schedule the run executed (DSL form);
	// Chaos is the per-fault record.
	ChaosScript string         `json:"chaos_script"`
	Chaos       []ChaosOutcome `json:"chaos"`
	// ChaosMismatches counts faults whose observed outcome contradicted
	// the expectation — any nonzero fails the run.
	ChaosMismatches int `json:"chaos_mismatches"`

	Crashes  int `json:"crashes"`
	Restarts int `json:"restarts"`
	// Recoveries is each replacement's timeline from the kill to Ready.
	Recoveries []Recovery `json:"recoveries"`
	Suspects   int        `json:"suspects"`
	Restores   int        `json:"restores"`

	// ExplainedViolations are the Violations attributable to injected
	// message/process loss (crashes and partitions are outside Definition
	// 2.3's delivery model, so the registers' guarantees legitimately do
	// not hold across them); UnexplainedViolations = Violations −
	// Explained must be zero.
	ExplainedViolations   int `json:"explained_violations"`
	UnexplainedViolations int `json:"unexplained_violations"`

	// MergedEvents is the fan-in's emitted count; MergeClamped counts
	// events that arrived below the merge frontier and were clamped
	// forward (expected zero on one host).
	MergedEvents int `json:"merged_events"`
	MergeClamped int `json:"merge_clamped"`
}
