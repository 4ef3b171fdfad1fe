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
	// hosts (≤ 0 selects 1). Every instance is the unmodified node program;
	// instance r on node i is the runtime's port r·N + i, and all R
	// instances on a node share its clock, its goroutine, and its
	// transport connections — the first step toward the keyed-store
	// roadmap item, where each key is an independent S^c register. Frames
	// carry the instance index as a logical channel (Frame.Chan), so the
	// paper's per-link tagging and holding applies per logical channel
	// over the shared physical link.
	Registers int
	// Bounds is the designed link delay interval [d1, d2]. The transport
	// is loopback, so d2 is a budget, not a guarantee: deliveries are held
	// until d1 (enforcement of the lower bound) and counted as violations
	// past d2 (the upper bound can only be measured). Zero means [0, ∞).
	Bounds simtime.Interval
	// Ell is the timer-service budget ℓ: the runtime services timers with
	// real goroutine wakeups, so a deadline may be observed up to
	// scheduling latency late — the live analogue of the MMT boundmap
	// [0, ℓ]. The measured maximum lateness is reported so monitoring can
	// check the budget held. Zero means "don't care" (report-only).
	Ell simtime.Duration
	// Clocks supplies each node's clock model; defaults to perfect clocks.
	// The runtime evaluates each model at the real time since its epoch.
	Clocks clock.Factory
	// Transport moves frames; defaults to the in-process NewLocalTransport.
	Transport Transport

	// Local lists the node IDs this process hosts; nil hosts all N (the
	// single-process runtimes of pscserve). A fleet daemon hosts exactly
	// one: frames for remote nodes cross its Transport (a MeshTransport),
	// and inbound frames for nodes it does not host are dropped.
	Local []int
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
	// TimerLate is the largest timer service lateness observed: the
	// measured ℓ. One host stall sets it; TimerLateP50 and TimerLateP99 are
	// the distribution over every timer fired, to within a lateHist bucket.
	TimerLate, TimerLateP50, TimerLateP99 simtime.Duration
	// DelayMin and DelayMax bound the observed per-message delays: the
	// effective [d1, d2] of the live links.
	DelayMin, DelayMax simtime.Duration
	// DelayViolations counts messages delivered later than Bounds.Hi.
	DelayViolations int
	// Messages counts frames sent; Held counts deliveries the receive
	// buffer R_ji,ε postponed because the tag was ahead of the local clock.
	Messages, Held int
	// RecorderDrops counts events recorded after shutdown flushed the
	// recorder. Every event is recorded by a node loop and shutdown joins
	// those first, so any run has zero.
	RecorderDrops int
	// Reconnects counts transport link re-dials after dial/write failures
	// (zero on transports that never reconnect).
	Reconnects int
	// SendDrops counts frames the transport discarded, at a full queue or
	// on a cut link (FaultTransport's partitions).
	SendDrops int
}

// Runtime hosts N×R copies of a core.Algorithm on wall-clock time: one
// goroutine per node owning that node's R algorithm instances, their
// service ports, its clock, and its timer queue (the same core.TimerQueue
// the simulator's engine drains, so timers fire in the same (deadline,
// registration) order in both worlds). Messages are tagged with the
// sender's clock and held at the receiver until its clock reaches the tag
// — the send/receive buffers S_ij,ε and R_ji,ε of Figure 2, realized on
// real time, per logical channel.
type Runtime struct {
	opts       Options
	factory    core.AlgorithmFactory
	regFactory func(reg int) core.AlgorithmFactory

	sinks   []exec.Sink
	amnesic bool // Recovering: nodes start as replacements that lost their state

	epoch     time.Time
	rec       *recorder
	nodes     []*node
	transport Transport
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

// New validates the options and returns an unstarted runtime.
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
		factory:   f,
		transport: opts.Transport,
		stop:      make(chan struct{}),
		rec:       newRecorder(),
	}
	rt.delayMin.Store(math.MaxInt64)
	return rt, nil
}

// Port maps (register instance, node) to the runtime's port identifier:
// the NodeID under which that instance's invocations and responses appear
// in the recorded stream. With one register it is the node ID itself, so
// single-register traces are unchanged.
func (rt *Runtime) Port(nodeID ta.NodeID, reg int) ta.NodeID {
	return ta.NodeID(rt.opts.PortBase+reg*rt.opts.N) + nodeID
}

// hostsNode reports whether this runtime hosts node i (always true in
// single-process mode).
func (rt *Runtime) hostsNode(i int) bool {
	if i < 0 || i >= rt.opts.N {
		return false
	}
	if rt.opts.Local == nil {
		return true
	}
	for _, l := range rt.opts.Local {
		if l == i {
			return true
		}
	}
	return false
}

// AddSink registers an exec.Sink over the runtime's observable event
// stream (environment invocations and responses, with the message
// interface hidden — the same projection the simulator's sinks see).
// Must be called before Start.
func (rt *Runtime) AddSink(s exec.Sink) { rt.sinks = append(rt.sinks, s) }

// SetRegisterFactory installs a per-register-instance algorithm factory,
// overriding the uniform one for instances it covers: register instance
// reg on every node is built by fn(reg) when that returns non-nil. This is
// the tiered keyed store's hook — one node hosts a mix of S-keys and
// L-keys (lin and seq tiers), all sharing its clock, goroutine, and
// transport. Must be called before Start.
func (rt *Runtime) SetRegisterFactory(fn func(reg int) core.AlgorithmFactory) {
	rt.regFactory = fn
}

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
	n, r := rt.opts.N, rt.opts.Registers
	rt.nodes = make([]*node, n)
	for i := 0; i < n; i++ {
		if !rt.hostsNode(i) {
			continue
		}
		nd := &node{
			id:    ta.NodeID(i),
			rt:    rt,
			algs:  make([]core.Algorithm, r),
			srcs:  make([]string, r),
			clk:   &nodeClock{epoch: rt.epoch, m: rt.opts.Clocks(i)},
			inbox: make(chan nodeMsg, inboxDepth),
			prod:  rt.rec.producer(nodeRingDepth),

			amnesic: rt.amnesic,
			linked:  make(map[ta.NodeID]simtime.Time),
		}
		for reg := 0; reg < r; reg++ {
			f := rt.factory
			if rt.regFactory != nil {
				if rf := rt.regFactory(reg); rf != nil {
					f = rf
				}
			}
			nd.algs[reg] = f(ta.NodeID(i), n)
			nd.srcs[reg] = fmt.Sprintf("live(%v)", rt.Port(ta.NodeID(i), reg))
		}
		rt.nodes[i] = nd
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

// Invoke hands an environment invocation for register instance 0 to the
// given node; the response is recorded and told to nobody. Safe for
// concurrent use. Only tests call Invoke and InvokeReg — binaries go
// through a Server — and every caller meets at the node's port, which
// starts an invocation only once the one before it has been answered:
// §6.1's alternation, enforced where the operation runs.
func (rt *Runtime) Invoke(nodeID ta.NodeID, name string, payload any) error {
	return rt.invoke(nodeID, invocation{name: name, payload: payload})
}

// InvokeReg is Invoke aimed at a specific register instance.
func (rt *Runtime) InvokeReg(nodeID ta.NodeID, reg int, name string, payload any) error {
	return rt.invoke(nodeID, invocation{reg: reg, name: name, payload: payload})
}

// invoke puts inv on its node's inbox; node.admit takes it from there.
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
		d := Since(rt.epoch).Sub(f.SentReal)
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
// nil when nobody waits (Invoke). The node's send on to must never block:
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

// heldFrame is the timer key the receive buffer R_ji,ε uses to postpone a
// delivery until the local clock reaches the sender's tag. It is node-
// internal: the loop intercepts it before OnTimer, so algorithm keys and
// hold keys share the queue without colliding.
type heldFrame struct{ f Frame }

// regKey namespaces an algorithm's timer key by its register instance so
// the R instances share one queue without key collisions; the loop
// unwraps it before OnTimer, so programs see their own keys.
type regKey struct {
	reg int
	key any
}

// node is one live node: R algorithm instances, clock, timer queue, inbox,
// and the core.Context the instances see during callbacks. All fields are
// owned by the node's goroutine after Start.
type node struct {
	id    ta.NodeID
	rt    *Runtime
	algs  []core.Algorithm
	srcs  []string // per-register recorder source labels
	clk   *nodeClock
	inbox chan nodeMsg
	wake  *wakeSource
	prod  *producer

	// ports[reg] is instance reg's service port, grown on first use: an
	// instance nothing invokes (a fleet daemon's detector) has none.
	ports []port

	timers core.TimerQueue
	// armedAt is the deadline wake is armed for, when armed. The loop re-arms
	// when the head of timers changes, after a wake (which spent the arming)
	// and after a poke (the clock was stepped under it).
	armedAt simtime.Time
	armed   bool

	// last keeps the algorithms' observed time monotone, exactly like the
	// simulator engine's high-water mark: a timer serviced late still
	// observes its scheduled deadline, but never earlier than a previously
	// observed instant. The clamp is per node, not per instance — all R
	// instances read the one physical clock.
	last   simtime.Time
	now    simtime.Time
	curReg int // register instance the current callback belongs to

	// Recovery (transfer.go): amnesic until a peer's state is restored; when
	// each peer's link last came up; the recovery in progress; the counter
	// its waits and requests are numbered from.
	amnesic bool
	linked  map[ta.NodeID]simtime.Time
	rec     *recovery
	asks    uint32
}

var _ core.Context = (*node)(nil)

// inboxDepth is each node's queue depth. inboxBatch bounds how many inbox
// entries the loop drains per wakeup before re-checking timers: large
// enough to amortize the select, small enough that a flood cannot starve
// due timers.
const (
	inboxDepth = 4096
	inboxBatch = 64
)

func (n *node) loop() {
	defer n.rt.wg.Done()
	defer n.wake.close()
	for reg := range n.algs {
		r := reg
		n.callback(r, n.clk.now(), func() { n.algs[r].Start(n) })
	}
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
// whose deadline the local clock has reached. Callbacks observe Time()
// equal to their scheduled deadline clamped monotone — the same semantics
// as the simulator engine's advance (and Definition 5.1's catch-up): the
// action happened at its scheduled clock value even when the goroutine
// woke late, and the tags on any messages it sends must say so.
func (n *node) fireDue() {
	for {
		at, ok := n.timers.Next()
		if !ok {
			return
		}
		nowClk := n.clk.now()
		if at.After(nowClk) {
			return
		}
		entry := n.timers.Pop()
		late := nowClk.Sub(entry.At)
		atomicMax(&n.rt.timerLate, int64(late))
		n.rt.lateness[lateBucket(late)].Add(1)
		switch k := entry.Key.(type) {
		case transferTimer:
			if r := n.rec; r != nil && r.id == k.id {
				n.ask("did not answer")
			}
		case heldFrame:
			n.callback(k.f.Chan, entry.At, func() { n.algs[k.f.Chan].OnMessage(n, k.f.From, k.f.Body) })
		case regKey:
			n.callback(k.reg, entry.At, func() { n.algs[k.reg].OnTimer(n, k.key) })
		default:
			// Single-register fast path registers bare keys.
			n.callback(0, entry.At, func() { n.algs[0].OnTimer(n, entry.Key) })
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
	c := n.clk.now()
	if f.SentClock.After(c) {
		// Receive buffer R_ji,ε: the tag is ahead of the local clock; hold
		// the delivery until the clock reaches it.
		n.timers.Push(f.SentClock, heldFrame{f: f})
		n.rt.held.Add(1)
		return
	}
	n.callback(f.Chan, c, func() { n.algs[f.Chan].OnMessage(n, f.From, f.Body) })
}

// callback runs fn as register instance reg and then — fn having returned,
// so no algorithm is re-entered mid-callback — starts whatever waits at
// reg's port if fn answered the operation that was open there.
func (n *node) callback(reg int, t simtime.Time, fn func()) {
	n.run(reg, t, fn)
	if reg < len(n.ports) {
		n.serve(reg)
	}
}

// run runs fn as register instance reg with the context's clock set to t
// clamped monotone.
func (n *node) run(reg int, t simtime.Time, fn func()) {
	if t.Before(n.last) {
		t = n.last
	}
	n.last = t
	n.now = t
	n.curReg = reg
	fn()
}

// admit queues inv at its port and starts it if the port is free.
func (n *node) admit(inv invocation) {
	for len(n.ports) <= inv.reg {
		n.ports = append(n.ports, port{})
	}
	p := &n.ports[inv.reg]
	p.waiting = append(p.waiting, inv)
	n.serve(inv.reg)
}

// serve starts the first waiting invocation at reg's port while the port
// has no operation open: stamp the Input — here, as it becomes the port's
// open operation (the recorder's header says why that is sound) — and run
// OnInput. An operation answered inside its own OnInput frees the port
// again, hence the loop.
func (n *node) serve(reg int) {
	p := &n.ports[reg]
	for !p.open && len(p.waiting) > 0 {
		p.open, p.cur = true, p.waiting[0]
		p.waiting = p.waiting[:copy(p.waiting, p.waiting[1:])] // shift down: the array is reused
		n.prod.record(ta.Action{
			Name: p.cur.name, Node: n.rt.Port(n.id, reg), Peer: ta.NoNode,
			Kind: ta.KindInput, Payload: p.cur.payload,
		}, "env")
		n.run(reg, n.clk.now(), func() { n.algs[reg].OnInput(n, p.cur.name, p.cur.payload) })
	}
}

// core.Context implementation — valid only during callbacks, like the
// simulator engine's.

func (n *node) Time() simtime.Time { return n.now }
func (n *node) ID() ta.NodeID      { return n.id }
func (n *node) N() int             { return n.rt.opts.N }

func (n *node) Neighbors() []ta.NodeID {
	out := make([]ta.NodeID, n.rt.opts.N)
	for i := range out {
		out[i] = ta.NodeID(i)
	}
	return out
}

func (n *node) Send(to ta.NodeID, body any) {
	if int(to) < 0 || int(to) >= n.rt.opts.N {
		panic(fmt.Sprintf("live: node %v sent to %v with no edge e_{%v,%v} (§3.1 signature restriction)", n.id, to, n.id, to))
	}
	f := Frame{
		From:      n.id,
		To:        to,
		Chan:      n.curReg,
		SentClock: n.now,
		SentReal:  Since(n.rt.epoch),
		Body:      body,
	}
	n.rt.msgs.Add(1)
	// A Send error can only mean a frame for a pair that does not exist
	// or a transport already closed at shutdown; overload is not an error,
	// the transport counts the frame it drops (Measured.SendDrops).
	_ = n.rt.transport.Send(f)
}

func (n *node) Broadcast(body any) {
	for j := 0; j < n.rt.opts.N; j++ {
		n.Send(ta.NodeID(j), body)
	}
}

func (n *node) Output(name string, payload any) {
	reg := n.curReg
	n.prod.record(ta.Action{
		Name: name, Node: n.rt.Port(n.id, reg), Peer: ta.NoNode,
		Kind: ta.KindOutput, Payload: payload,
	}, n.srcs[reg])
	if reg >= len(n.ports) || !n.ports[reg].open {
		return // nothing was invoked here: a detector's SUSPECT, not a response
	}
	// The response to the port's open operation. What waits behind it starts
	// once this callback has returned (callback → serve).
	p := &n.ports[reg]
	if p.cur.to != nil {
		v, _ := payload.(register.Value)
		p.cur.to <- wireResp{ID: p.cur.id, Op: name, Val: v} // never blocks: see invocation
	}
	p.open, p.cur = false, invocation{}
}

func (n *node) SetTimer(at simtime.Time, key any) {
	if n.curReg == 0 {
		// Bare key: the dominant single-register path stays allocation-
		// identical to the pre-multiplexing runtime.
		n.timers.Push(at, key)
		return
	}
	n.timers.Push(at, regKey{reg: n.curReg, key: key})
}
