package exec_test

// Coverage for the lookahead-violation error path: a partition that
// declares a lookahead larger than the true cross-shard effect delay lets
// the victim's lane sweep past the instant the liar's POKE makes it due,
// and must trip the `exec: lookahead violation` diagnostic at the barrier,
// naming the offending action and its source, with the committed trace
// still a clean prefix of the sequential oracle's rather than a reordered
// or partially merged one.

import (
	"strings"
	"testing"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

const (
	liarPokeAt  = simtime.Time(1 * extMS)
	victimReact = 100 * extUS
)

// liarTA fires one observable POKE at liarPokeAt.
type liarTA struct{ fired bool }

func (l *liarTA) Name() string                                { return "liar" }
func (l *liarTA) Init() []ta.Action                           { return nil }
func (l *liarTA) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }

func (l *liarTA) Due(simtime.Time) (simtime.Time, bool) {
	if l.fired {
		return 0, false
	}
	return liarPokeAt, true
}

func (l *liarTA) Fire(now simtime.Time) []ta.Action {
	if l.fired || now.Before(liarPokeAt) {
		return nil
	}
	l.fired = true
	return []ta.Action{{Name: "POKE", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput}}
}

// victimTA arms a deadline victimReact after each delivery (reaction-free
// at the instant itself, as cross-shard subscribers must be) and fires an
// observable WOKE when it expires.
type victimTA struct {
	due   simtime.Time
	armed bool
}

func (v *victimTA) Name() string      { return "victim" }
func (v *victimTA) Init() []ta.Action { return nil }

func (v *victimTA) Deliver(now simtime.Time, _ ta.Action) []ta.Action {
	v.due, v.armed = now.Add(victimReact), true
	return nil
}

func (v *victimTA) Due(simtime.Time) (simtime.Time, bool) { return v.due, v.armed }

func (v *victimTA) Fire(now simtime.Time) []ta.Action {
	if !v.armed || now.Before(v.due) {
		return nil
	}
	v.armed = false
	return []ta.Action{{Name: "WOKE", Node: 1, Peer: ta.NoNode, Kind: ta.KindOutput}}
}

// buildLiarSystem wires liar -> victim across two shards (shards > 1)
// that declare the given lookahead. 50µs lower-bounds the actual
// dispatch-to-due delay (victimReact = 100µs), so that partition is safe
// and traces match the oracle; 200µs overstates it.
func buildLiarSystem(lookahead simtime.Duration, shards int) *exec.System {
	s := exec.New()
	v := &victimTA{}
	s.Add(&liarTA{})
	s.Add(v)
	s.ConnectName("POKE", v)
	if shards > 1 {
		s.SetShards(2, func(name string) int {
			if name == "liar" {
				return 0
			}
			return 1
		}, lookahead)
	}
	return s
}

func TestShardedLyingLookaheadTripsViolation(t *testing.T) {
	t.Parallel()
	until := simtime.Time(5 * extMS)

	// Control: an honest lookahead shards cleanly and reproduces the
	// sequential trace. This pins the blame for the failing variant on the
	// declared lookahead, not the partition.
	seqTrace := func() string {
		s := buildLiarSystem(0, -1)
		if err := s.Run(until); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		return renderFull(s.Trace())
	}()
	honest := buildLiarSystem(50*extUS, 2)
	if err := honest.Run(until); err != nil {
		t.Fatalf("honest sharded run: %v", err)
	}
	if !honest.Sharded() {
		t.Fatalf("honest plan fell back: %q", honest.ShardFallbackReason())
	}
	if got := renderFull(honest.Trace()); got != seqTrace {
		t.Errorf("honest sharded trace diverges:\nsharded:\n%s\nsequential:\n%s", trim(got), trim(seqTrace))
	}

	liar := buildLiarSystem(200*extUS, 2)
	err := liar.Run(until)
	if err == nil {
		t.Fatal("lying lookahead: Run succeeded, want exec: lookahead violation")
	}
	msg := err.Error()
	if !strings.Contains(msg, "exec: lookahead violation") {
		t.Fatalf("error %q does not carry the lookahead-violation diagnostic", msg)
	}
	// The diagnostic must name the offending action, its source component,
	// and the component whose deadline landed inside the executed window.
	for _, want := range []string{"POKE", "liar", "victim"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q does not name %q", msg, want)
		}
	}
	// The committed trace must not be corrupted: whatever settled before
	// the failure is a prefix of the sequential oracle's trace.
	if got := renderFull(liar.Trace()); !strings.HasPrefix(seqTrace, got) {
		t.Errorf("post-violation trace is not a prefix of the sequential trace:\ngot:\n%s\nsequential:\n%s", trim(got), trim(seqTrace))
	}
}
