package live

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// verdictCase is one deployment shape and a recorded event stream from it.
type verdictCase struct {
	name                   string
	nodes, regs, extra     int
	tiers                  []register.Tier // nil: the untiered stack
	incarnations           int             // node 1 restarts this many times mid-stream
	singleAnonymousHistory bool            // pscserve's untiered single register set no key func
}

var verdictCases = []verdictCase{
	{name: "untiered single register", nodes: 3, regs: 1, singleAnonymousHistory: true},
	{name: "8 registers", nodes: 3, regs: 8},
	{name: "mixed tiers", nodes: 3, regs: 4,
		tiers: []register.Tier{register.TierLin, register.TierSeq, register.TierLin, register.TierSeq}},
	{name: "two incarnations in the fleet's port layout", nodes: 3, regs: 2, extra: 1, incarnations: 1},
}

// recordStream plays a linearizable multi-register run — every operation
// takes effect at its response, and reads return the value current then —
// in the port layout Runtime.Port produces: register r on node i of
// incarnation k is port k·N·(R+extra) + r·N + i. When node 1 restarts, the
// operations it had open stay open for good, as a crash leaves them.
func recordStream(c verdictCase, seed int64, events int) []ta.Event {
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		busy  bool
		write bool
		val   register.Value
	}
	space := c.nodes * (c.regs + c.extra)
	inc := make([]int, c.nodes)
	slots := make(map[ta.NodeID]*slot)
	cur := make([]register.Value, c.regs)
	for r := range cur {
		cur[r] = register.Initial
	}
	var out []ta.Event
	now := simtime.Time(0)
	emit := func(port ta.NodeID, name string, kind ta.Kind, payload any) {
		now = now.Add(simtime.Duration(50+rng.Intn(400)) * us)
		out = append(out, ta.Event{Seq: len(out), At: now,
			Action: ta.Action{Name: name, Node: port, Peer: ta.NoNode, Kind: kind, Payload: payload}})
	}
	restartAt := events / 2
	for len(out) < events {
		if c.incarnations > 0 && inc[1] < c.incarnations && len(out) >= restartAt {
			inc[1]++
		}
		node, reg := rng.Intn(c.nodes), rng.Intn(c.regs)
		port := ta.NodeID(inc[node]*space + reg*c.nodes + node)
		s := slots[port]
		if s == nil {
			s = &slot{}
			slots[port] = s
		}
		switch {
		case !s.busy && rng.Float64() < 0.3:
			s.busy, s.write = true, true
			s.val = register.Value{Writer: ta.NodeID(node), Seq: len(out)}
			emit(port, register.ActWrite, ta.KindInput, s.val)
		case !s.busy:
			s.busy, s.write = true, false
			emit(port, register.ActRead, ta.KindInput, nil)
		case s.write:
			s.busy = false
			cur[reg] = s.val
			emit(port, register.ActAck, ta.KindOutput, nil)
		default:
			s.busy = false
			emit(port, register.ActReturn, ta.KindOutput, cur[reg])
		}
	}
	return out
}

// referenceStack is the Monitor + Sharded assembly pscserve, fleet.Plane and
// E17 each wrote out by hand before NewVerdict, options spelled literally:
// the reference the one constructor must keep agreeing with.
func referenceStack(m Model, c verdictCase) (*register.Monitor, *linearize.Sharded) {
	linOpt := linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        m.Eps + m.Slack,
		AssumeUnique: true,
		MaxStates:    1 << 18,
		Yield:        runtime.Gosched,
	}
	seqOpt := linearize.SeqOptions{
		Initial:  register.Initial.String(),
		MaxStale: m.C + m.Delta + 2*m.Eps + m.Ell + m.Slack,
		Yield:    runtime.Gosched,
	}
	so := linearize.ShardedOptions{Check: linOpt}
	if c.tiers != nil {
		so.New = func(key string) linearize.Automaton {
			idx, err := strconv.Atoi(strings.TrimPrefix(key, "r"))
			if err == nil && idx >= 0 && idx < len(c.tiers) && c.tiers[idx] == register.TierSeq {
				return linearize.NewSeqOnline(seqOpt)
			}
			return linearize.NewOnline(linOpt)
		}
	}
	mon := register.NewMonitor()
	check := linearize.NewSharded(so)
	mon.AddChecker("ref", check)
	if !c.singleAnonymousHistory {
		n, portSpace := c.nodes, c.nodes*(c.regs+c.extra)
		mon.SetKeyFunc(func(port ta.NodeID) string {
			return "r" + strconv.Itoa((int(port)%portSpace)/n)
		})
	}
	return mon, check
}

// TestVerdictMatchesHandAssembledStack feeds one recorded stream per
// deployment shape through NewVerdict and through the reference, and
// requires the merged result, every register's own result and the search
// size to be equal.
func TestVerdictMatchesHandAssembledStack(t *testing.T) {
	m := defaultModels[0].m
	for _, c := range verdictCases {
		stream := recordStream(c, 7, 4000)
		v := NewVerdict(VerdictConfig{Model: m, Nodes: c.nodes, Registers: c.regs, Extra: c.extra, Tiers: c.tiers})
		refMon, refCheck := referenceStack(m, c)
		for i, e := range stream {
			v.Observe(e)
			refMon.Observe(e)
			if i%64 == 63 {
				v.Flush(e.At)
				refMon.Flush(e.At)
			}
		}
		out := v.Finish()
		want := refMon.Verdict("ref")
		if err := refMon.Err(); err != nil {
			t.Fatalf("%s: the recorded stream breaks the reference's contract: %v", c.name, err)
		}
		if got := v.mon.Verdict("live"); got != want {
			t.Errorf("%s: merged result %+v, reference %+v", c.name, got, want)
		}
		if !want.OK || out.Violations != 0 || len(out.Messages) != 0 || len(out.Tail) != 0 {
			t.Errorf("%s: a linearizable stream judged %+v (reference %+v)", c.name, out, want)
		}
		if out.States != want.States || want.States == 0 {
			t.Errorf("%s: %d states, reference %d (want equal, nonzero)", c.name, out.States, want.States)
		}
		if len(out.PerReg) != c.regs {
			t.Fatalf("%s: %d per-register results for %d registers", c.name, len(out.PerReg), c.regs)
		}
		for r, got := range out.PerReg {
			key := "r" + strconv.Itoa(r)
			if c.singleAnonymousHistory {
				key = ""
			}
			ref, ok := refCheck.KeyResult(key)
			if !ok || got != ref {
				t.Errorf("%s, register %d: %+v, reference %+v (seen %v)", c.name, r, got, ref, ok)
			}
		}
	}
}

// TestVerdictNamesTheFailure: a stale read long after a newer write
// completed fails its register's check, and a second invocation on a busy
// port breaks the stream contract; Finish names which, and carries the
// event tail — for the contract, the ring as it stood at the breaking event.
func TestVerdictNamesTheFailure(t *testing.T) {
	m := defaultModels[0].m
	const nodes, regs = 3, 4
	// Clean traffic on registers 0–2; the failure is staged on register 3.
	clean := recordStream(verdictCase{nodes: nodes, regs: regs - 1}, 3, 600)
	port := ta.NodeID(3*nodes + 1)
	extend := func(acts ...ta.Action) []ta.Event {
		stream := append([]ta.Event(nil), clean...)
		at := clean[len(clean)-1].At
		for _, a := range acts {
			at = at.Add(50 * ms) // far beyond the check's ε+slack relaxation
			a.Node, a.Peer = port, ta.NoNode
			stream = append(stream, ta.Event{Seq: len(stream), At: at, Action: a})
		}
		return stream
	}
	v1, v2 := register.Value{Writer: 1, Seq: 900_001}, register.Value{Writer: 1, Seq: 900_002}

	t.Run("check", func(t *testing.T) {
		stream := extend(
			ta.Action{Name: register.ActWrite, Kind: ta.KindInput, Payload: v1},
			ta.Action{Name: register.ActAck, Kind: ta.KindOutput},
			ta.Action{Name: register.ActWrite, Kind: ta.KindInput, Payload: v2},
			ta.Action{Name: register.ActAck, Kind: ta.KindOutput},
			ta.Action{Name: register.ActRead, Kind: ta.KindInput},
			ta.Action{Name: register.ActReturn, Kind: ta.KindOutput, Payload: v1},
		)
		v := NewVerdict(VerdictConfig{Model: m, Nodes: nodes, Registers: regs})
		for _, e := range stream {
			v.Observe(e)
		}
		out := v.Finish()
		if out.Violations != 1 || len(out.Messages) != 1 || !strings.Contains(out.Messages[0], "(register r3)") {
			t.Fatalf("outcome %+v: want one violation naming register r3", out)
		}
		for r, kr := range out.PerReg {
			if kr.OK != (r != 3) {
				t.Errorf("register %d: OK = %v", r, kr.OK)
			}
		}
		if len(out.Tail) == 0 || out.Tail[len(out.Tail)-1].Seq != len(stream)-1 {
			t.Errorf("tail of %d events, want the stream's last (of %d)", len(out.Tail), len(stream))
		}
	})

	t.Run("stream contract", func(t *testing.T) {
		stream := extend(
			ta.Action{Name: register.ActRead, Kind: ta.KindInput},
			ta.Action{Name: register.ActRead, Kind: ta.KindInput}, // the alternation condition breaks here
			ta.Action{Name: register.ActReturn, Kind: ta.KindOutput, Payload: register.Initial},
			ta.Action{Name: register.ActReturn, Kind: ta.KindOutput, Payload: register.Initial},
		)
		v := NewVerdict(VerdictConfig{Model: m, Nodes: nodes, Registers: regs})
		for _, e := range stream {
			v.Observe(e)
		}
		out := v.Finish()
		if out.Violations != 1 || len(out.Messages) != 1 || !strings.HasPrefix(out.Messages[0], "stream contract: ") {
			t.Fatalf("outcome %+v: want one stream-contract violation", out)
		}
		breaking := len(clean) + 1
		if len(out.Tail) == 0 || out.Tail[len(out.Tail)-1].Seq != breaking {
			t.Errorf("tail of %d events, want it to end with breaking event %d", len(out.Tail), breaking)
		}
	})
}
