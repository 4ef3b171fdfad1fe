// Package workload provides the environment of the register systems:
// closed-loop client automata that invoke READ/WRITE operations at their
// node, always waiting for the response before the next invocation — the
// alternation condition of §6.1 — with seeded think times and operation
// mixes. Written values are unique per execution (§3's uniqueness
// assumption): each client writes Value{Writer: node, Seq: k}.
package workload

import (
	"fmt"
	"math/rand"

	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Config describes a client population: one closed-loop client per node.
type Config struct {
	// Ops is the number of operations each client performs.
	Ops int
	// Think is the range of the gap between a response and the client's
	// next invocation.
	Think simtime.Interval
	// WriteRatio is the probability that an operation is a WRITE.
	WriteRatio float64
	// Seed derives the per-client seeds.
	Seed int64
	// Stagger delays client i's first invocation by i·Stagger, spreading
	// the initial burst.
	Stagger simtime.Duration
}

// Client is a closed-loop client automaton driving one node.
type Client struct {
	name string
	node ta.NodeID
	cfg  Config
	rng  *rand.Rand

	nextAt    simtime.Time
	waiting   bool
	remaining int
	wseq      int
	buf       [1]ta.Action // reusable return buffer

	// Done counts completed operations.
	Done int
}

var _ ta.Automaton = (*Client)(nil)

// NewClient returns a client for the given node.
func NewClient(node ta.NodeID, cfg Config) *Client {
	return &Client{
		name:      fmt.Sprintf("client(%v)", node),
		node:      node,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed*611953 + int64(node))),
		remaining: cfg.Ops,
	}
}

// Attach adds one client per node to the net and returns them.
func Attach(net *core.Net, cfg Config) []*Client {
	clients := make([]*Client, 0, net.N)
	for i := 0; i < net.N; i++ {
		c := NewClient(ta.NodeID(i), cfg)
		net.AddClient(c, ta.NodeID(i))
		clients = append(clients, c)
	}
	return clients
}

// AllDone returns the completion test core.Net.RunUntil takes: true once
// every client has completed all its operations.
func AllDone(clients []*Client) func() bool {
	return func() bool {
		for _, c := range clients {
			if c.Done != c.cfg.Ops {
				return false
			}
		}
		return true
	}
}

// Name implements ta.Automaton.
func (c *Client) Name() string { return c.name }

// Init implements ta.Automaton.
func (c *Client) Init() []ta.Action {
	c.nextAt = simtime.Zero.Add(simtime.Duration(c.node) * c.cfg.Stagger)
	return nil
}

// Deliver implements ta.Automaton: a response completes the outstanding
// operation and schedules the next invocation after a think time.
func (c *Client) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if a.Node != c.node || (a.Name != register.ActReturn && a.Name != register.ActAck) {
		return nil
	}
	if !c.waiting {
		return nil
	}
	c.waiting = false
	c.Done++
	c.nextAt = now.Add(c.think())
	return nil
}

func (c *Client) think() simtime.Duration {
	w := int64(c.cfg.Think.Width())
	if w == 0 {
		return c.cfg.Think.Lo
	}
	return c.cfg.Think.Lo + simtime.Duration(c.rng.Int63n(w+1))
}

// Due implements ta.Automaton.
func (c *Client) Due(simtime.Time) (simtime.Time, bool) {
	if c.waiting || c.remaining == 0 {
		return 0, false
	}
	return c.nextAt, true
}

// Fire implements ta.Automaton: invoke the next operation.
func (c *Client) Fire(now simtime.Time) []ta.Action {
	if c.waiting || c.remaining == 0 || now.Before(c.nextAt) {
		return nil
	}
	c.waiting = true
	c.remaining--
	if c.rng.Float64() < c.cfg.WriteRatio {
		v := register.Value{Writer: c.node, Seq: c.wseq}
		c.wseq++
		c.buf[0] = ta.Action{Name: register.ActWrite, Node: c.node, Peer: ta.NoNode, Kind: ta.KindInput, Payload: v}
	} else {
		c.buf[0] = ta.Action{Name: register.ActRead, Node: c.node, Peer: ta.NoNode, Kind: ta.KindInput}
	}
	return c.buf[:]
}
