package exec_test

// Coverage for the lookahead-violation error path under adaptive horizons:
// a component that lies through NextInterest — advertising that it will
// never act while actually firing an observable action — inflates its
// lane's published horizon, lets the peer lane sweep past the instant the
// lie hid, and must trip the `exec: lookahead violation` diagnostic at the
// barrier, naming the offending action and its source, with the committed
// trace still a clean prefix of the sequential oracle's rather than a
// reordered or partially merged one.

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

// liarTA fires an observable POKE at liarPokeAt. With lie set, its
// NextInterest claims it will never act — breaking the ta.Coalescable
// contract ("must never be later than the true earliest observable
// action") in exactly the way a buggy component would. FastForward is a
// no-op so the deadline itself stays armed and the fire still happens.
type liarTA struct {
	lie   bool
	fired bool
}

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

func (l *liarTA) NextInterest() simtime.Time {
	if l.lie {
		return simtime.Never
	}
	if l.fired {
		return simtime.Never
	}
	return liarPokeAt
}

func (l *liarTA) FastForward(simtime.Time) {}

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

// buildLiarSystem wires liar -> victim across two shards. The plan is
// honest either way: Lookahead[0][1] = 50µs lower-bounds the actual
// dispatch-to-due delay (victimReact = 100µs), so with a truthful
// NextInterest the partition is safe and traces match the oracle; only
// the component's own advertisement lies.
func buildLiarSystem(lie bool, shards int) *exec.System {
	s := exec.New()
	l := &liarTA{lie: lie}
	v := &victimTA{}
	s.Add(l)
	s.Add(v)
	s.ConnectName("POKE", v)
	if shards > 1 {
		never := simtime.Duration(simtime.Never)
		s.SetShardsPlanned(2, func(name string) int {
			if name == "liar" {
				return 0
			}
			return 1
		}, exec.ShardPlan{Lookahead: [][]simtime.Duration{
			{0, 50 * extUS},
			{never, 0},
		}})
	}
	return s
}

func TestShardedLyingNextInterestTripsViolation(t *testing.T) {
	t.Parallel()
	until := simtime.Time(5 * extMS)

	// Control: with a truthful NextInterest the same plan shards cleanly
	// and reproduces the sequential trace. This pins the blame for the
	// failing variant on the lie, not the plan.
	seqTrace := func() string {
		s := buildLiarSystem(false, -1)
		if err := s.Run(until); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		return renderFull(s.Trace())
	}()
	honest := buildLiarSystem(false, 2)
	if err := honest.Run(until); err != nil {
		t.Fatalf("honest sharded run: %v", err)
	}
	if !honest.Sharded() {
		t.Fatalf("honest plan fell back: %q", honest.ShardFallbackReason())
	}
	if got := renderFull(honest.Trace()); got != seqTrace {
		t.Errorf("honest sharded trace diverges:\nsharded:\n%s\nsequential:\n%s", trim(got), trim(seqTrace))
	}

	liar := buildLiarSystem(true, 2)
	err := liar.Run(until)
	if err == nil {
		t.Fatal("lying NextInterest: Run succeeded, want exec: lookahead violation")
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
