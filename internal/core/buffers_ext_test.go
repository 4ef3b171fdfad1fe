package core_test

import (
	"testing"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

const (
	extMS = simtime.Millisecond
	extUS = simtime.Microsecond
)

// TestLiteralBuffersEquivalent assembles the paper's literal composition —
// nodes with buffering disabled, edges renamed to a raw interface, and the
// standalone R_ji,ε automata of Figure 2 between them — and checks it
// produces exactly the same visible behavior as the folded implementation
// inside ClockNode.
func TestLiteralBuffersEquivalent(t *testing.T) {
	const n = 2
	eps := 500 * extUS
	bounds := simtime.NewInterval(100*extUS, 300*extUS) // d1 < 2ε: buffering active
	p := register.Params{C: 200 * extUS, Delta: 10 * extUS, D2: bounds.Hi + 2*eps, Epsilon: eps}
	w := workload.Config{Ops: 12, Think: simtime.NewInterval(0, extMS), WriteRatio: 0.5, Seed: 4, Stagger: 200 * extUS}

	// Reference: the standard folded build.
	refCfg := core.Config{N: n, Bounds: bounds, Seed: 6, Clocks: clock.SpreadFactory(eps)}
	ref := core.BuildClocked(refCfg, register.Factory(register.NewS, p))
	workload.Attach(ref, w)
	if _, err := ref.Sys.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
		t.Fatal(err)
	}
	refBuffered := 0
	for _, node := range ref.Clocked {
		b, _, _ := node.BufferStats()
		refBuffered += b
	}
	if refBuffered == 0 {
		t.Fatal("reference run exercised no buffering; test configuration is too tame")
	}

	// Literal: nodes with internal buffering off, edges renamed to
	// XRECVMSG, standalone R automata in between.
	s := exec.New()
	lit := &core.Net{Sys: s, N: n}
	clocks := clock.SpreadFactory(eps)
	models := make([]clock.Model, n)
	for i := 0; i < n; i++ {
		models[i] = clocks(i)
		node := core.NewClockNode(ta.NodeID(i), n, register.NewS(p), models[i])
		node.DisableBuffering()
		s.Add(node)
		s.ConnectHeader(node.Matches, node)
		lit.Clocked = append(lit.Clocked, node)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e := channel.NewClock(ta.NodeID(i), ta.NodeID(j), bounds, channel.UniformDelay(), int64(6*1_000_003+(i*n+j)*7919+17))
			renamed := ta.Rename(e, e.Name(), nil, func(a ta.Action) ta.Action {
				if a.Name == ta.NameERecvMsg {
					a.Name = "XRECVMSG"
				}
				return a
			})
			s.Add(renamed)
			s.ConnectHeader(e.Matches, renamed)

			rb := core.NewRecvBuffer(ta.NodeID(i), ta.NodeID(j), models[j], "XRECVMSG")
			s.Add(rb)
			s.ConnectHeader(rb.Matches, rb)
		}
	}
	s.Hide(func(a ta.Action) bool { return a.IsMessage() || a.Name == "XRECVMSG" })
	workload.Attach(lit, w)
	if _, err := s.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
		t.Fatal(err)
	}

	refVis := ref.Sys.Trace().Visible()
	litVis := s.Trace().Visible()
	if len(refVis) != len(litVis) {
		t.Fatalf("visible lengths differ: %d vs %d", len(refVis), len(litVis))
	}
	for i := range refVis {
		if refVis[i].String() != litVis[i].String() {
			t.Fatalf("event %d: folded %q vs literal %q", i, refVis[i].String(), litVis[i].String())
		}
	}
}
