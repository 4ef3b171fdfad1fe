package core_test

import (
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

const (
	extMS = simtime.Millisecond
	extUS = simtime.Microsecond
)

// literalVisibleHash is the verdict of the paper's literal composition of
// Figure 2 — nodes with their buffering off, the clock-model edges renamed
// to a raw interface, and standalone S_ij,ε and R_ji,ε automata between
// them — on TestLiteralBuffersEquivalent's run. The folded build gave the
// same value on that run when both existed; the literal automata have since
// been retired, and the value stands in for them.
const literalVisibleHash = 0xbd44c02fe72aab94

// TestLiteralBuffersEquivalent runs the folded receive buffers inside
// ClockNode on a configuration where they hold messages (d1 < 2ε, spread
// clocks) and checks that its visible behavior is the one the literal
// Figure 2 composition produced. The hash covers each visible event's
// label, kind, time and source, in order; its sequence number is
// renumbered over the visible trace, because the literal composition
// interleaved more hidden events.
func TestLiteralBuffersEquivalent(t *testing.T) {
	const n = 2
	eps := 500 * extUS
	bounds := simtime.NewInterval(100*extUS, 300*extUS) // d1 < 2ε: buffering active
	p := register.Params{C: 200 * extUS, Delta: 10 * extUS, D2: bounds.Hi + 2*eps, Epsilon: eps}
	w := workload.Config{Ops: 12, Think: simtime.NewInterval(0, extMS), WriteRatio: 0.5, Seed: 4, Stagger: 200 * extUS}

	cfg := core.Config{N: n, Bounds: bounds, Seed: 6, Clocks: clock.SpreadFactory(eps)}
	net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
	workload.Attach(net, w)
	if _, err := net.Sys.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
		t.Fatal(err)
	}
	buffered := 0
	for _, node := range net.Clocked {
		b, _, _ := node.BufferStats()
		buffered += b
	}
	if buffered == 0 {
		t.Fatal("the run exercised no buffering; test configuration is too tame")
	}

	vis := net.Sys.Trace().Visible()
	for i := range vis {
		vis[i].Seq = i
	}
	if got := trace.HashTrace(vis); got != literalVisibleHash {
		t.Fatalf("visible trace hash %#016x, the literal composition's was %#016x (%d events):\n%v",
			got, uint64(literalVisibleHash), len(vis), vis)
	}
}
