package object

import (
	"fmt"
	"math/rand"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// OpGen produces a client's next operation: the encoded op string and
// whether it is a blind update (vs a read-only query). Generators must
// keep updates unique per execution where the spec requires it (the
// register's unique-writes assumption); counters and sets need no
// uniqueness.
type OpGen func(r *rand.Rand, node ta.NodeID, seq int) (op string, isUpdate bool)

// RegisterOps writes unique values and reads, with the given write ratio.
func RegisterOps(writeRatio float64) OpGen {
	return func(r *rand.Rand, node ta.NodeID, seq int) (string, bool) {
		if r.Float64() < writeRatio {
			return fmt.Sprintf("write:%v.%d", node, seq), true
		}
		return "read", false
	}
}

// CounterOps adds small increments and gets.
func CounterOps(updateRatio float64) OpGen {
	return func(r *rand.Rand, node ta.NodeID, seq int) (string, bool) {
		if r.Float64() < updateRatio {
			return fmt.Sprintf("add:%d", 1+r.Intn(9)), true
		}
		return "get", false
	}
}

// GSetOps inserts node-tagged elements and queries membership of recently
// inserted ones (and occasionally the size).
func GSetOps(updateRatio float64) OpGen {
	return func(r *rand.Rand, node ta.NodeID, seq int) (string, bool) {
		if r.Float64() < updateRatio {
			return fmt.Sprintf("insert:%v-%d", node, seq), true
		}
		if r.Intn(4) == 0 {
			return "size", false
		}
		probe := r.Intn(seq + 1)
		return fmt.Sprintf("has:%v-%d", node, probe), false
	}
}

// MaxOps raises random values and gets the maximum.
func MaxOps(updateRatio float64) OpGen {
	return func(r *rand.Rand, node ta.NodeID, seq int) (string, bool) {
		if r.Float64() < updateRatio {
			return fmt.Sprintf("raise:%d", r.Intn(1000)), true
		}
		return "get", false
	}
}

// ClientConfig describes an object client population.
type ClientConfig struct {
	// Ops is the number of operations per client.
	Ops int
	// Think is the gap range between response and next invocation.
	Think simtime.Interval
	// Gen produces operations.
	Gen OpGen
	// Seed derives per-client randomness.
	Seed int64
	// Stagger delays client i's first invocation by i·Stagger.
	Stagger simtime.Duration
}

// Client is a closed-loop client issuing generic object operations.
type Client struct {
	name string
	node ta.NodeID
	cfg  ClientConfig
	rng  *rand.Rand

	nextAt    simtime.Time
	waiting   bool
	remaining int
	seq       int

	// Done counts completed operations.
	Done int
}

var _ ta.Automaton = (*Client)(nil)

// NewClient returns an object client for the given node.
func NewClient(node ta.NodeID, cfg ClientConfig) *Client {
	return &Client{
		name:      fmt.Sprintf("oclient(%v)", node),
		node:      node,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed*499979 + int64(node))),
		remaining: cfg.Ops,
	}
}

// Attach adds one object client per node.
func Attach(net *core.Net, cfg ClientConfig) []*Client {
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

// Deliver implements ta.Automaton.
func (c *Client) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	if a.Node != c.node || (a.Name != ActReturn && a.Name != ActAck) || !c.waiting {
		return nil
	}
	c.waiting = false
	c.Done++
	gap := c.cfg.Think.Lo
	if w := int64(c.cfg.Think.Width()); w > 0 {
		gap += simtime.Duration(c.rng.Int63n(w + 1))
	}
	c.nextAt = now.Add(gap)
	return nil
}

// Due implements ta.Automaton.
func (c *Client) Due(simtime.Time) (simtime.Time, bool) {
	if c.waiting || c.remaining == 0 {
		return 0, false
	}
	return c.nextAt, true
}

// Fire implements ta.Automaton.
func (c *Client) Fire(now simtime.Time) []ta.Action {
	if c.waiting || c.remaining == 0 || now.Before(c.nextAt) {
		return nil
	}
	c.waiting = true
	c.remaining--
	op, isUpdate := c.cfg.Gen(c.rng, c.node, c.seq)
	c.seq++
	name := ActQuery
	if isUpdate {
		name = ActUpdate
	}
	return []ta.Action{{Name: name, Node: c.node, Peer: ta.NoNode, Kind: ta.KindInput, Payload: op}}
}

// KVOps generates configuration-store traffic over a small key space:
// puts and deletes versus keyed gets. Values are node-tagged and unique.
func KVOps(updateRatio float64, keys int) OpGen {
	if keys < 1 {
		keys = 1
	}
	return func(r *rand.Rand, node ta.NodeID, seq int) (string, bool) {
		k := fmt.Sprintf("k%d", r.Intn(keys))
		if r.Float64() < updateRatio {
			if r.Intn(8) == 0 {
				return "del:" + k, true
			}
			return fmt.Sprintf("put:%s=%v.%d", k, node, seq), true
		}
		if r.Intn(10) == 0 {
			return "keys", false
		}
		return "get:" + k, false
	}
}
