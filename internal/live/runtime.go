package live

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Options configures a live runtime.
type Options struct {
	// N is the number of nodes; the graph is the complete directed graph
	// including self-loops, matching the simulator's default (the register
	// algorithms broadcast to themselves).
	N int
	// Registers is the number of independent algorithm instances each node
	// hosts (≤ 0 selects 1): one per key of the store, each an independent
	// S^c register. Every instance is the unmodified node program;
	// instance r on node i is the runtime's port r·N + i, and all R
	// instances on a node share its clock, its goroutine, and its
	// transport connections. Frames carry the instance index as a logical
	// channel (Frame.Chan), so the paper's per-link tagging and holding
	// applies per logical channel over the shared physical link.
	Registers int
	// Bounds is the designed link delay interval [d1, d2]. The transport
	// is loopback, so d2 is a budget, not a guarantee: deliveries are held
	// until d1 (enforcement of the lower bound) and counted as violations
	// past d2 (the upper bound can only be measured). Zero means [0, ∞).
	Bounds simtime.Interval
	// Ell is the timer-service budget ℓ, the live analogue of the MMT
	// boundmap [0, ℓ]. Only the benchmark harness (bench/) sets it, and the
	// runtime never reads it: it measures timer lateness
	// (Measured.TimerLate) whatever the budget, and only Model.Envelope
	// compares that measurement against ℓ.
	Ell simtime.Duration
	// Clocks supplies each node's clock model; defaults to perfect clocks.
	// The runtime evaluates each model at the real time since its epoch.
	Clocks clock.Factory
	// Transport moves frames; defaults to the in-process NewLocalTransport.
	// The runtime hosts exactly the nodes its transport hosts: all N on the
	// local and TCP transports, one on a fleet daemon's NewMeshTransport.
	Transport *MeshTransport

	// Epoch anchors simulated Zero. Zero-valued means "now at Start" (the
	// single-process default); a fleet passes one shared instant to every
	// daemon so all processes stamp events on a single timeline.
	Epoch time.Time
	// PortBase offsets every port identifier. A restarted daemon runs its
	// new incarnation in a fresh port namespace (incarnation·N·R), so the
	// §6.1 one-op-per-port alternation the Monitor enforces is never
	// violated by an invocation whose response died with the old process —
	// the old port's op simply stays open until Monitor.Finish submits it
	// as pending.
	PortBase int
}

// Measured is what the runtime observed over a run: the quantities the
// simulator gets to assume and the live world has to measure.
type Measured struct {
	// Eps is the largest |clock − real| any node's clock served: the
	// measured ε bound.
	Eps simtime.Duration
	// TimerLate is the largest lateness with which a node serviced a queue
	// entry (an instance's catch-up or a transfer wait): the measured ℓ.
	// One host stall sets it; TimerLateP50 and TimerLateP99 are the
	// distribution over every entry serviced, to within a lateHist bucket.
	TimerLate, TimerLateP50, TimerLateP99 simtime.Duration
	// DelayMin and DelayMax bound the observed per-message delays: the
	// effective [d1, d2] of the live links.
	DelayMin, DelayMax simtime.Duration
	// DelayViolations counts messages delivered later than Bounds.Hi.
	DelayViolations int
	// Messages counts frames sent; Held counts deliveries the receive
	// buffer R_ji,ε postponed: the tag was ahead of the local clock, or an
	// earlier frame from the same sender was still held.
	Messages, Held int
	// RecorderDrops counts events recorded after shutdown flushed the
	// recorder. Every event is recorded by a node loop and shutdown joins
	// those first, so any run has zero.
	RecorderDrops int
	// Reconnects counts transport link re-dials after dial/write failures
	// (zero on transports that never reconnect).
	Reconnects int
	// SendDrops counts frames the transport discarded, at a full queue or
	// on a link MeshTransport.SetPartition cut.
	SendDrops int
}

// Fold combines the measurements of two runs — two incarnations of a node,
// or two nodes — into one: counters add, Eps, TimerLate and DelayMax take
// the larger value, and DelayMin the smaller of the sides that measured
// any frame (zero is none). TimerLateP50 and TimerLateP99 take the larger
// value too: an upper bound on the quantile of the pooled timers, which
// the two quantiles alone cannot give exactly.
func (m Measured) Fold(o Measured) Measured {
	m.Eps = max(m.Eps, o.Eps)
	m.TimerLate = max(m.TimerLate, o.TimerLate)
	m.TimerLateP50 = max(m.TimerLateP50, o.TimerLateP50)
	m.TimerLateP99 = max(m.TimerLateP99, o.TimerLateP99)
	m.DelayMax = max(m.DelayMax, o.DelayMax)
	if m.DelayMin == 0 || o.DelayMin != 0 && o.DelayMin < m.DelayMin {
		m.DelayMin = o.DelayMin
	}
	m.DelayViolations += o.DelayViolations
	m.Messages += o.Messages
	m.Held += o.Held
	m.RecorderDrops += o.RecorderDrops
	m.Reconnects += o.Reconnects
	m.SendDrops += o.SendDrops
	return m
}

// Runtime hosts N×R copies of a core.Algorithm on wall-clock time: one
// goroutine per node owning that node's R algorithm instances, their
// service ports, its clock, and its timer queue. Each instance runs in the
// simulator's own node engine, a core.Composite driven by the node's clock
// reading: frames are tagged with the sender's clock and wait behind their
// sender's front until the receiver's clock reaches the tag (the buffers
// S_ij,ε and R_ji,ε of Figure 2, per logical channel), and every delivery
// and invocation first catches its instance up (Definition 5.1).
type Runtime struct {
	opts      Options
	factories []core.AlgorithmFactory // instance r runs factories[r]

	sinks   []exec.Sink
	amnesic bool // Recovering: nodes start as replacements that lost their state

	epoch     time.Time
	rec       *recorder
	nodes     []*node
	transport *MeshTransport
	stop      chan struct{}
	wg        sync.WaitGroup

	mu       sync.Mutex
	started  bool
	stopped  bool
	measured Measured

	msgs       atomic.Int64
	held       atomic.Int64
	delayMin   atomic.Int64
	delayMax   atomic.Int64
	delayViols atomic.Int64
	timerLate  atomic.Int64
	lateness   lateHist
}

// New validates the options and returns an unstarted runtime whose every
// instance runs f.
func New(opts Options, f core.AlgorithmFactory) (*Runtime, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("live: need at least one node, got %d", opts.N)
	}
	if opts.Registers <= 0 {
		opts.Registers = 1
	}
	if opts.Clocks == nil {
		opts.Clocks = clock.PerfectFactory()
	}
	if opts.Transport == nil {
		opts.Transport = NewLocalTransport(opts.N)
	}
	if opts.Bounds == (simtime.Interval{}) {
		opts.Bounds = simtime.Interval{Lo: 0, Hi: simtime.Forever}
	}
	rt := &Runtime{
		opts:      opts,
		factories: make([]core.AlgorithmFactory, opts.Registers),
		transport: opts.Transport,
		stop:      make(chan struct{}),
		rec:       newRecorder(),
	}
	for reg := range rt.factories {
		rt.factories[reg] = f
	}
	rt.delayMin.Store(math.MaxInt64)
	return rt, nil
}

// Deploy is the one assembly of a live register store. It validates m
// before it builds anything, then builds a runtime whose instance r runs
// tiers[r]'s algorithm with m.Params() — S for lin, L for seq — and whose
// instance len(tiers)+k runs extra[k] (a fleet daemon's detector); adds
// sinks in order; and opens a Server offering clients registers 0 …
// len(tiers)−1, each at its tier, and never an extra. Options.Registers
// and Options.Bounds are derived (the instance count, m.Bounds()), so the
// caller sets neither. The runtime and server come back unstarted: start
// the runtime, then the server. On any error Deploy closes opts.Transport,
// if one was given, so a failed deploy leaves no listener.
func Deploy(m Model, tiers []register.Tier, extra []core.AlgorithmFactory, opts Options, sinks ...exec.Sink) (*Runtime, *Server, error) {
	fail := func(err error) (*Runtime, *Server, error) {
		if opts.Transport != nil {
			opts.Transport.Close()
		}
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		return fail(err)
	}
	if len(tiers) == 0 {
		return fail(fmt.Errorf("live: deploy needs at least one register"))
	}
	opts.Registers, opts.Bounds = len(tiers)+len(extra), m.Bounds()
	rt, err := New(opts, nil)
	if err != nil {
		return fail(err)
	}
	for reg, t := range tiers {
		rt.factories[reg] = t.Factory(m.Params())
	}
	copy(rt.factories[len(tiers):], extra)
	rt.sinks = append(rt.sinks, sinks...)
	srv, err := NewServer(rt)
	if err != nil {
		return fail(err)
	}
	srv.tiers = tiers
	return rt, srv, nil
}

// Port maps (register instance, node) to the runtime's port identifier:
// the NodeID under which that instance's invocations and responses appear
// in the recorded stream. With one register it is the node ID itself, so
// single-register traces are unchanged.
func (rt *Runtime) Port(nodeID ta.NodeID, reg int) ta.NodeID {
	return ta.NodeID(rt.opts.PortBase+reg*rt.opts.N) + nodeID
}

// AddSink registers an exec.Sink over the runtime's observable event
// stream (environment invocations and responses, with the message
// interface hidden — the same projection the simulator's sinks see).
// Must be called before Start.
func (rt *Runtime) AddSink(s exec.Sink) { rt.sinks = append(rt.sinks, s) }

// Start anchors the epoch, builds the per-node clocks and algorithm
// instances, and launches the node loops.
func (rt *Runtime) Start() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return fmt.Errorf("live: runtime already started")
	}
	rt.started = true
	rt.epoch = rt.opts.Epoch
	if rt.epoch.IsZero() {
		rt.epoch = time.Now()
	}
	rt.nodes = make([]*node, rt.opts.N)
	for i := range rt.nodes {
		if rt.transport.hosts(i) {
			rt.nodes[i] = newNode(rt, i, effects{
				send:   rt.transport.Send,
				record: rt.rec.producer(nodeRingDepth).record,
				now:    func() simtime.Time { return Since(rt.epoch) },
			})
		}
	}
	rt.rec.start(rt.epoch, rt.sinks)
	err := rt.transport.Start(rt.deliverFrame)
	for _, nd := range rt.nodes {
		if nd == nil || err != nil {
			continue
		}
		if nd.wake, err = newWakeSource(); err == nil {
			rt.wg.Add(1)
			go nd.loop()
		}
	}
	if err != nil {
		rt.shutdown()
		return fmt.Errorf("live: start: %w", err)
	}
	return nil
}

// invoke puts inv on its node's inbox; node.admit takes it from there.
// Safe for concurrent use: every caller meets at the node's port, which
// starts an invocation only once the one before it has been answered —
// §6.1's alternation, enforced where the operation runs.
func (rt *Runtime) invoke(nodeID ta.NodeID, inv invocation) error {
	if int(nodeID) < 0 || int(nodeID) >= len(rt.nodes) || rt.nodes[nodeID] == nil {
		return fmt.Errorf("live: invoke at unknown node %v", nodeID)
	}
	if inv.reg < 0 || inv.reg >= rt.opts.Registers {
		return fmt.Errorf("live: invoke at unknown register %d", inv.reg)
	}
	select {
	case <-rt.stop:
		return fmt.Errorf("live: runtime stopped")
	default:
	}
	select {
	case rt.nodes[nodeID].inbox <- nodeMsg{inv: inv, invoke: true}:
		return nil
	case <-rt.stop:
		return fmt.Errorf("live: runtime stopped")
	}
}

// SetClockStep steps node i's clock by d on top of its model (absolute,
// not cumulative; 0 heals): the chaos controller's clock adversary, the
// one thing that can take a reading outside the model's ε band. The step
// shows in Measured.Eps by measurement. The node's loop armed its next
// wake-up in pre-step coordinates, so it is poked to re-read its clock
// and re-arm, the way a timer service that noticed the step would. Call
// after Start; safe for concurrent use.
func (rt *Runtime) SetClockStep(i int, d simtime.Duration) error {
	if i < 0 || i >= len(rt.nodes) || rt.nodes[i] == nil {
		return fmt.Errorf("live: clock step at unknown node %d", i)
	}
	rt.nodes[i].clk.setStep(d)
	select {
	case rt.nodes[i].inbox <- nodeMsg{poke: true}:
	default:
		// A full inbox means the loop is awake and draining; it re-reads
		// its clock before it next sleeps.
	}
	return nil
}

// Snapshot returns the measured bounds so far without stopping the
// runtime — the daemon's heartbeat payload.
func (rt *Runtime) Snapshot() Measured {
	rt.mu.Lock()
	if !rt.started || rt.stopped {
		m := rt.measured
		rt.mu.Unlock()
		return m
	}
	rt.mu.Unlock()
	return rt.measure()
}

// Stop shuts the runtime down — node loops, then transport, then a final
// sink flush — and returns the measured bounds. The node loops are the
// recorder's only producers, so the final drain sees a quiescent stream
// whatever else still runs; invocations still waiting at a port are
// dropped unstamped and unanswered. Idempotent.
func (rt *Runtime) Stop() Measured {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.started || rt.stopped {
		return rt.measured
	}
	rt.shutdown()
	rt.measured = rt.measure()
	return rt.measured
}

// shutdown is Stop's teardown, shared with a Start that failed part-way
// (which leaves a later Stop nothing to do). Each node loop closes its own
// wake source as it exits. The caller holds rt.mu.
func (rt *Runtime) shutdown() {
	rt.stopped = true
	close(rt.stop)
	rt.wg.Wait()
	rt.transport.Close()
	rt.rec.flush()
}

// measure reads the counters and probes the clocks and the transport.
func (rt *Runtime) measure() Measured {
	m := Measured{
		TimerLate:       simtime.Duration(rt.timerLate.Load()),
		TimerLateP50:    rt.lateness.quantile(0.50),
		TimerLateP99:    rt.lateness.quantile(0.99),
		DelayMax:        simtime.Duration(rt.delayMax.Load()),
		DelayViolations: int(rt.delayViols.Load()),
		Messages:        int(rt.msgs.Load()),
		Held:            int(rt.held.Load()),
		RecorderDrops:   int(rt.rec.drops.Load()),
	}
	if lo := rt.delayMin.Load(); lo != math.MaxInt64 {
		m.DelayMin = simtime.Duration(lo)
	}
	for _, n := range rt.nodes {
		if n == nil {
			continue
		}
		if b := n.clk.offsetBound(); b > m.Eps {
			m.Eps = b
		}
	}
	m.Reconnects = int(rt.transport.Reconnects())
	m.SendDrops = int(rt.transport.Drops())
	return m
}

// deliverFrame is the transport's delivery callback: enforce the designed
// lower delay bound d1 (loopback is faster than any designed network), then
// measure and enqueue. Safe for concurrent use.
func (rt *Runtime) deliverFrame(f Frame) {
	if lo := rt.opts.Bounds.Lo; lo > 0 {
		if raw := Since(rt.epoch).Sub(f.SentReal); raw < lo {
			if wait, err := simtime.ToWall(lo - raw); err == nil && wait > 0 {
				time.AfterFunc(wait, func() { rt.enqueueFrame(f) })
				return
			}
		}
	}
	rt.enqueueFrame(f)
}

// enqueueFrame records the delay the receiver actually experiences and
// hands the frame to the destination's loop. A frame comes off a socket
// anyone on the host can write to, so it is checked here, at the boundary:
// one for a node not hosted here, from something that is not a node, or on a
// channel that is neither the control channel nor a hosted instance is
// dropped.
func (rt *Runtime) enqueueFrame(f Frame) {
	if int(f.To) < 0 || int(f.To) >= len(rt.nodes) || rt.nodes[f.To] == nil {
		return
	}
	if int(f.From) < 0 || int(f.From) >= len(rt.nodes) {
		return
	}
	if f.Chan != ctlChan && (f.Chan < 0 || f.Chan >= rt.opts.Registers) {
		return
	}
	if f.Chan != ctlChan {
		d := rt.nodes[f.To].fx.now().Sub(f.SentReal)
		atomicMin(&rt.delayMin, int64(d))
		atomicMax(&rt.delayMax, int64(d))
		if hi := rt.opts.Bounds.Hi; hi != simtime.Forever && d > hi {
			rt.delayViols.Add(1)
		}
	}
	select {
	case rt.nodes[f.To].inbox <- nodeMsg{frame: f}:
	case <-rt.stop:
		// Shutdown: the receiver's loop has exited; the frame is dropped,
		// which only a stopping run produces.
	}
}

// lateHist is timer lateness as a distribution: nanosecond buckets, four
// per power of two (each ≤ 25 % wider than its lower edge) up to 2^41, the
// last taking anything later. Node loops count into it; measure reads it.
type lateHist [lateBuckets]atomic.Int64

const lateBuckets = 4 * 40

func lateBucket(d simtime.Duration) int {
	if d < 4 {
		return int(d)
	}
	k := bits.Len64(uint64(d)) - 1
	return min(4*(k-1)+int(d>>(k-2))&3, lateBuckets-1)
}

// lateEdge is bucket i's lower edge.
func lateEdge(i int) simtime.Duration {
	if i < 4 {
		return simtime.Duration(i)
	}
	return simtime.Duration(4+i%4) << (i/4 - 1)
}

// quantile returns the midpoint of the bucket that holds the q-th part of
// what has been counted so far (zero when nothing has).
func (h *lateHist) quantile(q float64) simtime.Duration {
	var total, seen int64
	for i := range h {
		total += h[i].Load()
	}
	for i := range h {
		if seen += h[i].Load(); float64(seen) >= q*float64(total) {
			return (lateEdge(i) + lateEdge(i+1)) / 2
		}
	}
	return 0
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// nodeMsg is one inbox entry: a network frame, an environment invocation, a
// recovery to run (transfer.go), or a poke that only makes the loop come
// round and re-arm its timer.
type nodeMsg struct {
	frame  Frame
	rec    *recovery
	poke   bool
	invoke bool
	inv    invocation
}

// invocation is one environment invocation on its way to a port, and whom
// to tell the response: id is the issuer's correlation tag, echoed; to is
// nil when nobody waits. The node's send on to must never block:
// the issuer keeps room for every response it is owed (see svcConn).
type invocation struct {
	reg     int
	name    string
	payload any
	id      uint64
	to      chan<- wireResp
}

// port is one register instance's service port at its node (§6.1): at most
// one operation open, the invocations admitted behind it in arrival order.
// Data the node loop owns, like the timer queue; nothing else touches it.
type port struct {
	open    bool
	cur     invocation
	waiting []invocation
}

// effects is all a node does outside its own state: send a frame, record an
// observable action, read real time (its clock reads it here too). Start
// fills it with the transport, a recorder ring and the wall clock.
type effects struct {
	send   func(Frame) error
	record func(a ta.Action, src string)
	now    func() simtime.Time
}

// node is one live node: R register instances, each in its own
// core.Composite (the algorithm, its timers and its receive buffers
// R_ji,ε), their ports, and the clock, timer queue and inbox they share.
// All fields are owned by the node's driver — its goroutine after Start.
type node struct {
	id    ta.NodeID
	rt    *Runtime
	fx    effects
	insts []*core.Composite
	srcs  []string // per-register recorder source labels
	clk   *nodeClock
	inbox chan nodeMsg
	wake  *wakeSource

	// ports[reg] is instance reg's service port, grown on first use: an
	// instance nothing invokes (a fleet daemon's detector) has none.
	ports []port

	// timers holds one lazy entry per instance with work pending, keyed by
	// its index, and the recovery's transferTimers. due[reg] is the deadline
	// instance reg is queued under (Never when none): an entry at any other
	// time is stale and is skipped, so a wake stays O(log R).
	timers simtime.Queue
	due    []simtime.Time
	// armedAt is the deadline wake is armed for, when armed. The loop re-arms
	// when the head of timers changes, after a wake (which spent the arming)
	// and after a poke (the clock was stepped under it).
	armedAt simtime.Time
	armed   bool

	// Recovery (transfer.go): amnesic until a peer's state is restored; when
	// each peer's link last came up; the recovery in progress; the counter
	// its waits and requests are numbered from.
	amnesic bool
	linked  map[ta.NodeID]simtime.Time
	rec     *recovery
	asks    uint32
}

// inboxDepth is each node's queue depth. inboxBatch bounds how many inbox
// entries the loop drains per wakeup before re-checking timers: large
// enough to amortize the select, small enough that a flood cannot starve
// due timers.
const (
	inboxDepth = 4096
	inboxBatch = 64
)

// newNode builds node i of rt, which reaches the world only through fx.
func newNode(rt *Runtime, i int, fx effects) *node {
	n, r := rt.opts.N, rt.opts.Registers
	nd := &node{
		id:    ta.NodeID(i),
		rt:    rt,
		fx:    fx,
		insts: make([]*core.Composite, r),
		srcs:  make([]string, r),
		due:   make([]simtime.Time, r),
		clk:   &nodeClock{real: fx.now, m: rt.opts.Clocks(i)},
		inbox: make(chan nodeMsg, inboxDepth),

		amnesic: rt.amnesic,
		linked:  make(map[ta.NodeID]simtime.Time),
	}
	for reg := 0; reg < r; reg++ {
		nd.insts[reg] = core.NewComposite(nd.id, n, rt.factories[reg](nd.id, n))
		nd.srcs[reg] = fmt.Sprintf("live(%v)", rt.Port(nd.id, reg))
		nd.due[reg] = simtime.Never
	}
	return nd
}

// start runs every instance's Start at the node's first clock reading.
func (n *node) start() {
	c := n.clk.now()
	for reg, inst := range n.insts {
		n.emit(reg, inst.Start(c))
		n.requeue(reg)
	}
}

// loop is the production driver: the node on a goroutine of its own.
func (n *node) loop() {
	defer n.rt.wg.Done()
	defer n.wake.close()
	n.start()
	for {
		n.fireDue()
		// An empty queue needs no disarm: it empties only by firing its head,
		// which is after the armed instant has passed.
		if at, ok := n.timers.Next(); ok && (!n.armed || at != n.armedAt) {
			wait := n.clk.waitUntil(at)
			if wait <= 0 {
				// Became due between fireDue and here; fire it.
				continue
			}
			n.wake.arm(wait)
			n.armed, n.armedAt = true, at
		}
		select {
		case m := <-n.inbox:
			n.handle(m)
			// Batch-drain whatever else is queued: under pipelined load
			// the inbox is rarely empty, and handling a run of messages
			// per wakeup keeps the scheduler off the per-message path.
			for i := 1; i < inboxBatch; i++ {
				select {
				case m := <-n.inbox:
					n.handle(m)
				default:
					i = inboxBatch
				}
			}
		case <-n.wake.C:
			// Never early: a token only brings the loop round. fireDue
			// services what the clock says is due, and a token that came
			// before that (stale, or a stepped clock's) re-arms above.
			n.armed = false
		case <-n.rt.stop:
			return
		}
	}
}

// fireDue services, in (deadline, registration) order, every queue entry
// whose deadline the local clock has reached: an instance's is its
// Composite.Advance to the clock reading, which fires each of its timers
// and buffer releases at its own clock value (the simulator's advance and
// Definition 5.1's catch-up), even when the goroutine woke late.
func (n *node) fireDue() {
	for {
		at, ok := n.timers.Next()
		if !ok {
			return
		}
		c := n.clk.now()
		if at.After(c) {
			return
		}
		entry := n.timers.Pop()
		reg, inst := entry.Key.(int)
		if inst && entry.At != n.due[reg] {
			continue // stale: the instance was queued again since
		}
		late := c.Sub(entry.At)
		atomicMax(&n.rt.timerLate, int64(late))
		n.rt.lateness[lateBucket(late)].Add(1)
		if inst {
			n.due[reg] = simtime.Never
			n.settle(reg, n.insts[reg].Advance(c))
		} else if r := n.rec; r != nil && r.id == entry.Key.(transferTimer).id {
			n.ask("did not answer")
		}
	}
}

func (n *node) handle(m nodeMsg) {
	if m.poke {
		n.armed = false
		return
	}
	if m.rec != nil {
		n.rec = m.rec // a recovery still in progress is abandoned
		n.wire()
		return
	}
	if m.invoke {
		n.admit(m.inv)
		return
	}
	f := m.frame
	if f.Chan == ctlChan {
		n.control(f)
		return
	}
	inst := n.insts[f.Chan]
	held, _, _ := inst.BufferStats()
	out := inst.Receive(n.clk.now(), f.From, ta.TaggedMsg{Body: f.Body, SentClock: f.SentClock})
	if b, _, _ := inst.BufferStats(); b > held {
		n.rt.held.Add(1)
	}
	n.settle(f.Chan, out)
}

// settle finishes a composite call on instance reg: its outputs are carried
// out, then — the call having returned, so no algorithm is re-entered —
// whatever waits at reg's port starts, and the instance is queued at its
// next deadline.
func (n *node) settle(reg int, out []core.Stamped) {
	n.emit(reg, out)
	if reg < len(n.ports) {
		n.serve(reg)
	}
	n.requeue(reg)
}

// requeue queues instance reg at its next deadline unless it is queued
// there already; an entry it was queued under before goes stale.
func (n *node) requeue(reg int) {
	if at, ok := n.insts[reg].NextDue(); !ok {
		n.due[reg] = simtime.Never
	} else if at != n.due[reg] {
		n.due[reg] = at
		n.timers.Push(at, reg)
	}
}

// admit queues inv at its port and starts it if the port is free.
func (n *node) admit(inv invocation) {
	for len(n.ports) <= inv.reg {
		n.ports = append(n.ports, port{})
	}
	n.ports[inv.reg].waiting = append(n.ports[inv.reg].waiting, inv)
	n.settle(inv.reg, nil)
}

// serve starts the first waiting invocation at reg's port while the port
// has no operation open: stamp the Input — here, as it becomes the port's
// open operation (the recorder's header says why that is sound) — and hand
// it to the instance. An operation answered inside its own OnInput frees
// the port again, hence the loop.
func (n *node) serve(reg int) {
	p := &n.ports[reg]
	for !p.open && len(p.waiting) > 0 {
		p.open, p.cur = true, p.waiting[0]
		p.waiting = p.waiting[:copy(p.waiting, p.waiting[1:])] // shift down: the array is reused
		n.fx.record(ta.Action{
			Name: p.cur.name, Node: n.rt.Port(n.id, reg), Peer: ta.NoNode,
			Kind: ta.KindInput, Payload: p.cur.payload,
		}, "env")
		n.emit(reg, n.insts[reg].Input(n.clk.now(), p.cur.name, p.cur.payload))
	}
}

// emit carries out, in order, what instance reg's composite did. Each
// ESENDMSG leaves as a frame tagged with the clock value of its send;
// SENDMSG and RECVMSG are the composite's hidden interface. Any other
// output is recorded and answers the port's open operation; with none open
// (a detector's SUSPECT) it is only recorded.
func (n *node) emit(reg int, out []core.Stamped) {
	for _, s := range out {
		switch a := s.Act; a.Name {
		case ta.NameSendMsg, ta.NameRecvMsg:
		case ta.NameESendMsg:
			tm := a.Payload.(ta.TaggedMsg)
			n.rt.msgs.Add(1)
			// A Send error can only mean a frame for a pair that does not
			// exist or a transport already closed at shutdown; overload is
			// not an error, the transport counts the frame it drops
			// (Measured.SendDrops).
			_ = n.fx.send(Frame{
				From: n.id, To: a.Peer, Chan: reg,
				SentClock: tm.SentClock, SentReal: n.fx.now(), Body: tm.Body,
			})
		default:
			a.Node = n.rt.Port(n.id, reg)
			n.fx.record(a, n.srcs[reg])
			if reg >= len(n.ports) || !n.ports[reg].open {
				continue
			}
			p := &n.ports[reg]
			if p.cur.to != nil {
				v, _ := a.Payload.(register.Value)
				p.cur.to <- wireResp{ID: p.cur.id, Op: a.Name, Val: v} // never blocks: see invocation
			}
			p.open, p.cur = false, invocation{}
		}
	}
}
