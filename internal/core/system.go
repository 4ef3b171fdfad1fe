package core

import (
	"fmt"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Config describes a distributed system to build: the graph is the
// complete directed graph on N nodes including self-loops (algorithm L of
// §6 sends updates to every processor including itself), every edge having
// delay bounds Bounds.
type Config struct {
	// N is the number of nodes.
	N int
	// Bounds is the link delay interval [d1, d2] of every edge.
	Bounds simtime.Interval
	// EdgeBounds, when non-nil, overrides Bounds per directed edge, so
	// heterogeneous links (§2.3 allows each channel its own [d1, d2]) can
	// be modelled. The shard planner exploits the spread: each cross-shard
	// lane pair's lookahead is the minimum d1 over the edges that actually
	// cross it, not the global minimum.
	EdgeBounds func(from, to int) simtime.Interval
	// Seed derives all per-component seeds.
	Seed int64
	// NewDelay builds the delay policy for each edge (a fresh instance per
	// edge, since policies may be stateful). Defaults to UniformDelay.
	NewDelay func() channel.DelayPolicy
	// FIFO forbids per-link reordering.
	FIFO bool

	// Clocks supplies the per-node clock models for the clock and MMT
	// models. Defaults to perfect clocks.
	Clocks clock.Factory

	// Ell is the MMT step bound ℓ. Required for BuildMMT.
	Ell simtime.Duration
	// NewStep builds each node's step policy. Defaults to LazySteps.
	NewStep func() StepPolicy
	// TickPeriod is the TICK interval of the clock subsystem C^m; it
	// defaults to Ell and must be positive for BuildMMT.
	TickPeriod simtime.Duration

	// DisableRecvBuffer turns off R_ji,ε on every node (§7.2 ablation).
	DisableRecvBuffer bool

	// Topology selects which directed edges exist (§2.4 defines systems
	// on arbitrary graphs (V, E)). nil means the complete graph including
	// self-loops, which the register algorithms require (their broadcasts
	// include the sender). Algorithms may only Send along existing edges.
	Topology func(from, to int) bool

	// Shards requests conservative-parallel sharded execution
	// (exec.System.SetShardsPlanned): nodes are partitioned into contiguous
	// blocks balanced by interest density, each node's tick source and
	// clients join its shard, and every channel is pinned to its receiver's
	// shard, so each ordered shard pair's lookahead is the minimum d1 over
	// the links that actually cross it. Below 2 (zero and negative alike)
	// the system runs on the sequential executor; values above N are
	// clamped to N. Seeded runs produce identical observable traces either
	// way.
	Shards int
}

// shardCount resolves the effective shard count: the config's request
// clamped to [1, N].
func (cfg Config) shardCount() int {
	return max(1, min(cfg.Shards, cfg.N))
}

// edgeBounds resolves the delay interval of edge (i, j).
func (cfg Config) edgeBounds(i, j int) simtime.Interval {
	if cfg.EdgeBounds != nil {
		return cfg.EdgeBounds(i, j)
	}
	return cfg.Bounds
}

func (cfg Config) hasEdge(i, j int) bool {
	if cfg.Topology == nil {
		return true
	}
	return cfg.Topology(i, j)
}

// neighborsOf lists cfg's outgoing edges from node i.
func (cfg Config) neighborsOf(i int) []ta.NodeID {
	out := make([]ta.NodeID, 0, cfg.N)
	for j := 0; j < cfg.N; j++ {
		if cfg.hasEdge(i, j) {
			out = append(out, ta.NodeID(j))
		}
	}
	return out
}

func (cfg Config) withDefaults() Config {
	if cfg.NewDelay == nil {
		cfg.NewDelay = channel.UniformDelay
	}
	if cfg.Clocks == nil {
		cfg.Clocks = clock.PerfectFactory()
	}
	if cfg.NewStep == nil {
		cfg.NewStep = LazySteps
	}
	if cfg.TickPeriod == 0 {
		cfg.TickPeriod = cfg.Ell
	}
	return cfg
}

// Net is a built distributed system: the executor plus handles to its
// components. Exactly one of Timed, Clocked, MMT is populated, matching
// the model the Net was built for.
type Net struct {
	Sys   *exec.System
	N     int
	Edges []*channel.Edge

	Timed   []*TimedNode
	Clocked []*ClockNode
	MMT     []*MMTNode
	Ticks   []*TickSource

	// nodeShard and shardOf record the partition when Config requested
	// sharded execution; both are nil on the sequential path. shardOf is
	// the name→shard map the executor's assignment closure consults at
	// first run, so AddClient can still join a client to its node's shard
	// after building.
	nodeShard []int
	shardOf   map[string]int
}

// balancedBlocks cuts the node line 0..n-1 into s contiguous blocks of
// near-equal total weight, keeping every block non-empty, and returns the
// node→block assignment. With uniform weights it reproduces the classic
// i*s/n partition.
func balancedBlocks(weight []int, s int) []int {
	n := len(weight)
	total := 0
	for _, w := range weight {
		total += w
	}
	out := make([]int, n)
	b, acc := 0, 0
	for i := 0; i < n; i++ {
		out[i] = b
		acc += weight[i]
		// Advance to the next block once this one holds its proportional
		// share of the weight — or when the nodes left are only just enough
		// to keep the remaining blocks non-empty.
		if b < s-1 && (acc*s >= (b+1)*total || n-i-1 == s-b-1) {
			b++
		}
	}
	return out
}

// shardWeights estimates each node's event density for the partition
// balancer: the node automaton itself, its tick source (the dominant heap
// churn in the MMT model, even coalesced), and each of its incoming
// channels contribute scheduler load to whichever shard hosts the node.
func (net *Net) shardWeights() []int {
	weight := make([]int, net.N)
	for i := range weight {
		weight[i] = 1
	}
	for range net.Ticks {
		// Tick sources exist for every node or none; count them uniformly.
		for i := range weight {
			weight[i]++
		}
		break
	}
	for _, e := range net.Edges {
		weight[int(e.To())]++
	}
	return weight
}

// applySharding partitions the built components into cfg.shardCount()
// contiguous node blocks — balanced by interest density (nodes, tick
// sources, and incoming channels all generate scheduler load for their
// shard) — and hands the executor a per-lane-pair lookahead plan: entry
// (j, k) is the minimum d1 over the edges whose sender sits in shard j and
// receiver in shard k, saturating Never for pairs no edge crosses, so
// distant lanes run ahead on their own slack instead of the global
// minimum. Same-instant causality stays shard-local by construction: a
// node reacts instantly only to its own tick source, its own clients, and
// deliveries from its incoming channels — all pinned to its shard — while
// a channel merely schedules a future arrival (≥ its d1 later) when its
// sender's shard writes to it; each channel's d1 is also declared as its
// minimum effect delay, which caps how far a lane must throttle its
// guarantees for mail it has buffered but not yet handed over.
func (net *Net) applySharding(cfg Config) {
	s := cfg.shardCount()
	if s < 2 {
		return
	}
	nodeShard := balancedBlocks(net.shardWeights(), s)
	shard := func(i int) int { return nodeShard[i] }
	m := make(map[string]int, 2*net.N+len(net.Edges))
	for i, n := range net.Timed {
		m[n.Name()] = shard(i)
	}
	for i, n := range net.Clocked {
		m[n.Name()] = shard(i)
	}
	for i, n := range net.MMT {
		m[n.Name()] = shard(i)
	}
	for i, t := range net.Ticks {
		m[t.Name()] = shard(i)
	}
	la := make([][]simtime.Duration, s)
	for j := range la {
		la[j] = make([]simtime.Duration, s)
		for k := range la[j] {
			if j != k {
				la[j][k] = simtime.Duration(simtime.Never)
			}
		}
	}
	edgeD1 := make(map[string]simtime.Duration, len(net.Edges))
	for _, e := range net.Edges {
		recv := shard(int(e.To()))
		m[e.Name()] = recv
		edgeD1[e.Name()] = e.Bounds().Lo
		if from := shard(int(e.From())); from != recv {
			if lo := e.Bounds().Lo; lo < la[from][recv] {
				la[from][recv] = lo
			}
		}
	}
	net.nodeShard = nodeShard
	net.shardOf = m
	net.Sys.SetShardsPlanned(s, func(name string) int {
		if sh, ok := net.shardOf[name]; ok {
			return sh
		}
		return -1
	}, exec.ShardPlan{
		Lookahead: la,
		MinDelay:  func(name string) simtime.Duration { return edgeD1[name] },
	})
}

// Invoke injects an environment invocation at the given node at the
// current time, e.g. net.Invoke(0, "READ", nil).
func (net *Net) Invoke(node ta.NodeID, name string, payload any) {
	net.Sys.Inject(ta.Action{
		Name:    name,
		Node:    node,
		Peer:    ta.NoNode,
		Kind:    ta.KindInput,
		Payload: payload,
	})
}

// AddClient registers a client automaton driving node `node`: the client
// receives that node's environment responses as inputs, and any invocation
// actions it emits are routed to the node.
func (net *Net) AddClient(c ta.Automaton, node ta.NodeID) {
	if net.shardOf != nil {
		// The client exchanges same-instant actions with its node, so it
		// must live in the node's shard.
		net.shardOf[c.Name()] = net.nodeShard[int(node)]
	}
	net.Sys.Add(c)
	net.Sys.ConnectHeader(ResponsesAt(node), c)
}

// ResponsesAt matches environment responses (visible non-message outputs)
// at the given node.
func ResponsesAt(node ta.NodeID) func(ta.Action) bool {
	return func(a ta.Action) bool {
		return a.Node == node && a.Kind == ta.KindOutput && !a.IsMessage() && a.Name != ta.NameTick
	}
}

// Stamps returns the concatenated γ'_α records of all clock-model nodes in
// executor dispatch order is not preserved across nodes; entries are
// per-node ordered. Only valid for a Net built with BuildClocked.
func (net *Net) Stamps() []ClockStamp {
	var out []ClockStamp
	for _, n := range net.Clocked {
		out = append(out, n.Stamps()...)
	}
	return out
}

func hideInterface(s *exec.System) {
	s.Hide(func(a ta.Action) bool { return a.IsMessage() || a.Name == ta.NameTick })
}

func edgeSeed(base int64, i, j, n int) int64 {
	return base*1_000_003 + int64(i*n+j)*7919 + 17
}

// BuildTimed assembles D_T(G, A, E_[d1,d2]) (§3.3): the timed-automaton
// model system in which the algorithm sees real time.
func BuildTimed(cfg Config, f AlgorithmFactory) *Net {
	cfg = cfg.withDefaults()
	s := exec.New()
	net := &Net{Sys: s, N: cfg.N}
	for i := 0; i < cfg.N; i++ {
		node := NewTimedNode(ta.NodeID(i), cfg.N, f(ta.NodeID(i), cfg.N))
		if cfg.Topology != nil {
			node.RestrictNeighbors(cfg.neighborsOf(i))
		}
		s.Add(node)
		s.ConnectHeader(node.Matches, node)
		net.Timed = append(net.Timed, node)
	}
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			if !cfg.hasEdge(i, j) {
				continue
			}
			e := channel.New(ta.NodeID(i), ta.NodeID(j), cfg.edgeBounds(i, j), cfg.NewDelay(), edgeSeed(cfg.Seed, i, j, cfg.N))
			e.FIFO = cfg.FIFO
			s.Add(e)
			s.ConnectHeader(e.Matches, e)
			net.Edges = append(net.Edges, e)
		}
	}
	hideInterface(s)
	net.applySharding(cfg)
	return net
}

// BuildClocked assembles D_C(G, A^c_ε, E^c_[d1,d2]) (§4.1): every node is
// the transformed composite A^c_{i,ε} (C(A_i,ε) plus send/receive buffers)
// attached to its clock, and edges carry clock-tagged messages.
func BuildClocked(cfg Config, f AlgorithmFactory) *Net {
	cfg = cfg.withDefaults()
	s := exec.New()
	net := &Net{Sys: s, N: cfg.N}
	for i := 0; i < cfg.N; i++ {
		node := NewClockNode(ta.NodeID(i), cfg.N, f(ta.NodeID(i), cfg.N), cfg.Clocks(i))
		if cfg.Topology != nil {
			node.RestrictNeighbors(cfg.neighborsOf(i))
		}
		if cfg.DisableRecvBuffer {
			node.DisableBuffering()
		}
		s.Add(node)
		s.ConnectHeader(node.Matches, node)
		net.Clocked = append(net.Clocked, node)
	}
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			if !cfg.hasEdge(i, j) {
				continue
			}
			e := channel.NewClock(ta.NodeID(i), ta.NodeID(j), cfg.edgeBounds(i, j), cfg.NewDelay(), edgeSeed(cfg.Seed, i, j, cfg.N))
			e.FIFO = cfg.FIFO
			s.Add(e)
			s.ConnectHeader(e.Matches, e)
			net.Edges = append(net.Edges, e)
		}
	}
	hideInterface(s)
	net.applySharding(cfg)
	return net
}

// BuildMMT assembles D_M(G, A^m_{ε,ℓ}, E^m_[d1,d2]) (§5.2): every node is
// M(A^c_{i,ε}, ℓ) composed with its TICK source C^m_{i,ε,ℓ}, and edges are
// the clock-model edges.
func BuildMMT(cfg Config, f AlgorithmFactory) *Net {
	cfg = cfg.withDefaults()
	if cfg.Ell <= 0 {
		panic(fmt.Sprintf("core: BuildMMT requires Ell > 0, got %v", cfg.Ell))
	}
	if cfg.TickPeriod > cfg.Ell {
		panic(fmt.Sprintf("core: tick period %v exceeds step bound ℓ = %v", cfg.TickPeriod, cfg.Ell))
	}
	s := exec.New()
	net := &Net{Sys: s, N: cfg.N}
	for i := 0; i < cfg.N; i++ {
		node := NewMMTNode(ta.NodeID(i), cfg.N, f(ta.NodeID(i), cfg.N), cfg.Ell, cfg.NewStep(), cfg.Seed*31+int64(i))
		if cfg.Topology != nil {
			node.RestrictNeighbors(cfg.neighborsOf(i))
		}
		s.Add(node)
		s.ConnectHeader(node.Matches, node)
		net.MMT = append(net.MMT, node)

		// The tick source's TICK(c) outputs reach the node through the
		// node's own subscription above (TICK@node matches node.Matches).
		// The demand wiring runs the other way: the source asks its node
		// which clock threshold it is blocked on, so the coalescing fast
		// path can synthesize exactly the TICK that crosses it.
		ticks := NewTickSource(ta.NodeID(i), cfg.Clocks(i), cfg.TickPeriod)
		ticks.SetDemand(node.ClockDemand)
		s.Add(ticks)
		net.Ticks = append(net.Ticks, ticks)
	}
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			if !cfg.hasEdge(i, j) {
				continue
			}
			e := channel.NewClock(ta.NodeID(i), ta.NodeID(j), cfg.edgeBounds(i, j), cfg.NewDelay(), edgeSeed(cfg.Seed, i, j, cfg.N))
			e.FIFO = cfg.FIFO
			s.Add(e)
			s.ConnectHeader(e.Matches, e)
			net.Edges = append(net.Edges, e)
		}
	}
	hideInterface(s)
	net.applySharding(cfg)
	return net
}
