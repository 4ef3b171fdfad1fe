package workload

import (
	"fmt"
	"math/rand"

	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// ScriptOp is one pre-scheduled operation of an open-loop client.
type ScriptOp struct {
	// At is the invocation time.
	At simtime.Time
	// Write selects WRITE (true) or READ (false).
	Write bool
}

// MakeScript generates a fixed invocation schedule: ops operations spaced
// exactly `spacing` apart (which must exceed the worst-case operation
// latency so the alternation condition holds), with the given write ratio,
// offset by `start`. Fixed schedules let two runs of different system
// models (e.g. D_C and D_M in experiment E8) receive byte-identical input
// sequences, which the ≤_{δ,K} comparison of Definition 2.9 requires.
func MakeScript(ops int, start simtime.Time, spacing simtime.Duration, writeRatio float64, seed int64) []ScriptOp {
	r := rand.New(rand.NewSource(seed))
	out := make([]ScriptOp, ops)
	at := start
	for i := range out {
		out[i] = ScriptOp{At: at, Write: r.Float64() < writeRatio}
		at = at.Add(spacing)
	}
	return out
}

// ScriptedClient replays a fixed schedule at one node. If an operation
// comes due while the previous one is still outstanding (the schedule's
// spacing was too tight), the run fails rather than silently violating the
// alternation condition.
type ScriptedClient struct {
	name   string
	node   ta.NodeID
	script []ScriptOp
	next   int
	wait   bool
	wseq   int

	// Done counts completed operations.
	Done int
	// Err records an alternation violation.
	Err error
}

var _ ta.Automaton = (*ScriptedClient)(nil)

// NewScripted returns a scripted client for the given node.
func NewScripted(node ta.NodeID, script []ScriptOp) *ScriptedClient {
	return &ScriptedClient{
		name:   fmt.Sprintf("script(%v)", node),
		node:   node,
		script: script,
	}
}

// AttachScripted adds one scripted client per node, each replaying its own
// schedule from scripts[i].
func AttachScripted(net *core.Net, scripts [][]ScriptOp) []*ScriptedClient {
	clients := make([]*ScriptedClient, 0, net.N)
	for i := 0; i < net.N; i++ {
		c := NewScripted(ta.NodeID(i), scripts[i])
		net.AddClient(c, ta.NodeID(i))
		clients = append(clients, c)
	}
	return clients
}

// Name implements ta.Automaton.
func (c *ScriptedClient) Name() string { return c.name }

// Init implements ta.Automaton.
func (c *ScriptedClient) Init() []ta.Action { return nil }

// Deliver implements ta.Automaton.
func (c *ScriptedClient) Deliver(_ simtime.Time, a ta.Action) []ta.Action {
	if a.Node != c.node || (a.Name != register.ActReturn && a.Name != register.ActAck) {
		return nil
	}
	if c.wait {
		c.wait = false
		c.Done++
	}
	return nil
}

// Due implements ta.Automaton.
func (c *ScriptedClient) Due(simtime.Time) (simtime.Time, bool) {
	if c.next >= len(c.script) {
		return 0, false
	}
	return c.script[c.next].At, true
}

// Fire implements ta.Automaton.
func (c *ScriptedClient) Fire(now simtime.Time) []ta.Action {
	if c.next >= len(c.script) || now.Before(c.script[c.next].At) {
		return nil
	}
	op := c.script[c.next]
	c.next++
	if c.wait {
		if c.Err == nil {
			c.Err = fmt.Errorf("workload: %s: operation due at %v while previous still outstanding (spacing too tight)", c.name, op.At)
		}
		return nil
	}
	c.wait = true
	if op.Write {
		v := register.Value{Writer: c.node, Seq: c.wseq}
		c.wseq++
		return []ta.Action{{Name: register.ActWrite, Node: c.node, Peer: ta.NoNode, Kind: ta.KindInput, Payload: v}}
	}
	return []ta.Action{{Name: register.ActRead, Node: c.node, Peer: ta.NoNode, Kind: ta.KindInput}}
}
