package fleet

import (
	"fmt"
	"strings"
	"time"

	"psclock/internal/detector"
	"psclock/internal/simtime"
)

// ChaosOutcome is one fault's classification: what was injected, what was
// expected, what the run's evidence says happened, and whether they
// match. A mismatch in either direction is a regression — a fault that
// should be absorbed but was flagged, or one that should surface but was
// silently tolerated.
type ChaosOutcome struct {
	Kind     string `json:"kind"`
	Target   int    `json:"target"`
	Peer     int    `json:"peer,omitempty"`
	AtMS     int64  `json:"at_ms"`
	DurMS    int64  `json:"dur_ms,omitempty"`
	AmountUS int64  `json:"amount_us,omitempty"`
	Expected string `json:"expected"`
	Observed string `json:"observed"`
	Match    bool   `json:"match"`
	Evidence string `json:"evidence"`
}

// RunScript injects the script's faults sequentially against the running
// fleet, classifying each from the measurement deltas across its evidence
// window. Faults run in Start order relative to loadStart; each window
// (inject → heal → settle) completes before the next fault fires, so the
// before/after deltas attribute cleanly. A close of stop (may be nil)
// abandons the remaining schedule after healing the in-flight fault;
// only executed faults are reported.
func (p *Plane) RunScript(script Script, loadStart time.Time, stop <-chan struct{}) []ChaosOutcome {
	out := make([]ChaosOutcome, 0, len(script))
	sleep := func(d time.Duration) bool {
		if d <= 0 {
			return true
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	// Detector evidence settles one timeout plus a couple of heartbeat
	// periods after a heal (RESTORE needs fresh heartbeats to land).
	detSettle := 500 * time.Millisecond
	if w, err := simtime.ToWall(p.cfg.DetTimeout + 2*p.cfg.DetPeriod); err == nil {
		detSettle = w + 200*time.Millisecond
	}

	for _, f := range script {
		if !sleep(time.Until(loadStart.Add(f.Start))) {
			return out
		}
		expected := f.Expect
		if expected == "" {
			expected = DefaultExpect(f, p.cfg.Eps, p.cfg.D2)
		}
		o := ChaosOutcome{
			Kind:     string(f.Kind),
			Target:   f.Target,
			Peer:     f.Peer,
			AtMS:     f.Start.Milliseconds(),
			DurMS:    f.Dur.Milliseconds(),
			Expected: string(expected),
		}
		if w, err := simtime.ToWall(f.Amount); err == nil {
			o.AmountUS = w.Microseconds()
		}
		pre := p.Stats()
		p.logf("chaos: inject %s", f)

		switch f.Kind {
		case FaultCrash:
			inc, _ := p.Incarnation(f.Target)
			if err := p.Kill(f.Target); err != nil {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "kill failed: " + err.Error()
				break
			}
			replaced := "not replaced"
			o.Observed = string(OutcomeUnresolved)
			if p.WaitReplaced(f.Target, inc, 20*time.Second) {
				o.Observed = string(OutcomeTolerated)
			}
			// A replacement serving again inside the detector timeout is never
			// SUSPECTed; one that took longer is, and needs this long to be
			// RESTOREd.
			sleep(detSettle)
			post := p.Stats()
			if n := len(post.Recoveries); n > len(pre.Recoveries) {
				replaced = fmt.Sprintf("replaced in %.0f ms", post.Recoveries[n-1].ReadyMS)
			}
			sus, res := detDelta(pre, post, f.Target, -1)
			o.Evidence = fmt.Sprintf("%s restarts=%d→%d suspects(target)=%d restores(target)=%d",
				replaced, pre.Restarts, post.Restarts, sus, res)

		case FaultPartition:
			if err := p.SetPartition(f.Target, f.Peer, true); err != nil {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "inject failed: " + err.Error()
				break
			}
			ran := sleep(f.Dur)
			p.SetPartition(f.Target, f.Peer, false)
			if !ran || !sleep(detSettle) {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "run stopped mid-window"
				out = append(out, o)
				return out
			}
			post := p.Stats()
			sus, res := detDelta(pre, post, f.Target, f.Peer)
			drops := post.Dropped - pre.Dropped
			if sus > 0 {
				o.Observed = string(OutcomeFlagged)
			} else {
				o.Observed = string(OutcomeTolerated)
			}
			o.Evidence = fmt.Sprintf("suspects(pair)=%d restores(pair)=%d frames_dropped=%d", sus, res, drops)

		case FaultDelay:
			if err := p.SetDelay(f.Target, f.Amount); err != nil {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "inject failed: " + err.Error()
				break
			}
			ran := sleep(f.Dur)
			p.SetDelay(f.Target, 0)
			if !ran {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "run stopped mid-window"
				out = append(out, o)
				return out
			}
			// The last delayed frame lands Amount after the heal; the next
			// beat ships the receiver's violation count shortly after.
			settle := 300 * time.Millisecond
			if w, err := simtime.ToWall(f.Amount); err == nil {
				settle += w
			}
			settle += 2 * beatPeriod
			sleep(settle)
			post := p.Stats()
			dv := post.DelayViolations - pre.DelayViolations
			// Demand systematic evidence: a past-budget window delays every
			// frame the target sends (hundreds at load), while an isolated
			// scheduling spike can push a frame or two past d2 on its own.
			if dv >= 3 {
				o.Observed = string(OutcomeFlagged)
			} else {
				o.Observed = string(OutcomeTolerated)
			}
			o.Evidence = fmt.Sprintf("delay_violations=%d→%d (budget d2=%v)", pre.DelayViolations, post.DelayViolations, p.cfg.D2)

		case FaultClockStep:
			if err := p.SetClockStep(f.Target, f.Amount); err != nil {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "inject failed: " + err.Error()
				break
			}
			ran := sleep(f.Dur)
			p.SetClockStep(f.Target, 0)
			if !ran {
				o.Observed = string(OutcomeUnresolved)
				o.Evidence = "run stopped mid-window"
				out = append(out, o)
				return out
			}
			sleep(300*time.Millisecond + 2*beatPeriod)
			post := p.Stats()
			before, after := pre.EpsByNode[f.Target], post.EpsByNode[f.Target]
			// The step is flagged when it pushes the node's measured ε̂ past
			// the larger of the configured band and whatever excursion the
			// node had already suffered (ε̂ is a high-water mark).
			band := p.cfg.Eps
			if before > band {
				band = before
			}
			if after > band {
				o.Observed = string(OutcomeFlagged)
			} else {
				o.Observed = string(OutcomeTolerated)
			}
			o.Evidence = fmt.Sprintf("eps_hat=%v→%v (band ε=%v)", before, after, p.cfg.Eps)
		}

		o.Match = o.Observed == o.Expected
		p.logf("chaos: %s → %s (expected %s, match=%v; %s)", f.Kind, o.Observed, o.Expected, o.Match, o.Evidence)
		out = append(out, o)
	}
	return out
}

// detDelta counts SUSPECT/RESTORE events involving target (and, when peer
// ≥ 0, only the target↔peer pair) that arrived between the two snapshots.
func detDelta(pre, post FleetStats, target, peer int) (suspects, restores int) {
	fresh := post.DetEvents[len(pre.DetEvents):]
	for _, e := range fresh {
		var hit bool
		if peer >= 0 {
			hit = (e.Observer == target && e.Peer == peer) || (e.Observer == peer && e.Peer == target)
		} else {
			hit = e.Peer == target
		}
		if !hit {
			continue
		}
		if e.Name == detector.ActSuspect {
			suspects++
		} else {
			restores++
		}
	}
	return
}

// Summary renders outcomes one per line for logs.
func Summary(outcomes []ChaosOutcome) string {
	var b strings.Builder
	for _, o := range outcomes {
		mark := "ok"
		if !o.Match {
			mark = "MISMATCH"
		}
		fmt.Fprintf(&b, "  [%s] %s@%dms target=%d expected=%s observed=%s (%s)\n",
			mark, o.Kind, o.AtMS, o.Target, o.Expected, o.Observed, o.Evidence)
	}
	return b.String()
}
