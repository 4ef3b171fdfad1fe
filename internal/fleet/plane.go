package fleet

import (
	"fmt"
	"io"
	osexec "os/exec"
	"sync"
	"time"

	"psclock/internal/detector"
	"psclock/internal/exec"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// PlaneConfig sizes the fleet and its model parameters.
type PlaneConfig struct {
	N         int
	Registers int    // data registers per node
	Tiers     string // register tier spec ("" = all lin)

	// The model vector, flat: NewPlane reads it once, as a live.Model.
	// Slack widens the online checker beyond ε for scheduling noise and
	// in-band clock steps.
	Eps, D1, D2, Delta, C, Ell simtime.Duration
	Slack                      simtime.Duration
	// DetPeriod and DetTimeout parameterize the node-level heartbeat
	// detector every daemon hosts as its last register instance; zero
	// derives them (live.Model.Detector). The plane acts on its SUSPECTs.
	DetPeriod, DetTimeout simtime.Duration

	// Seed reaches no daemon and nothing reads it; it is kept for callers
	// that set it.
	Seed        int64
	NodeBin     string // pscnode binary path
	CheckShards int

	// MaxRestarts bounds the replacements a node slot gets, each spawned
	// the moment the crash is seen.
	MaxRestarts int

	Verbose bool
	Logw    io.Writer
}

// daemonState is the plane's view of one node slot across incarnations.
type daemonState struct {
	node int

	mu         sync.Mutex
	changed    chan struct{} // closed and replaced when ready, byeSeen or gone changes
	inc        int
	cmd        *osexec.Cmd
	ctl        *ctlConn // inc's control channel, set at spawn
	nodeAddr   string
	clientAddr string // published only between Ready and death
	ready      bool
	helloed    bool
	byeSeen    bool
	beat       msgBeat
	base       live.Measured // dead incarnations, folded
	restarts   int
	gone       bool // restart budget exhausted
	// downAt is when the incarnation being replaced was killed or, for a
	// death nobody commanded, seen to have exited, and rec that recovery's
	// timeline so far; zero outside a recovery.
	downAt time.Time
	rec    Recovery
}

// notifyLocked wakes every await. Caller holds d.mu.
func (d *daemonState) notifyLocked() {
	close(d.changed)
	d.changed = make(chan struct{})
}

// await blocks until ok, evaluated under d.mu, holds or timeout has passed.
func (d *daemonState) await(timeout time.Duration, ok func() bool) bool {
	expired := time.After(timeout)
	for {
		d.mu.Lock()
		done, changed := ok(), d.changed
		d.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-changed:
		case <-expired:
			return false
		}
	}
}

// killLocked SIGKILLs the slot's current process, which funnels it into
// onExit, and stamps the recovery's start. A slot given up on, or a process
// already reaped, is refused. Caller holds d.mu.
func (d *daemonState) killLocked() error {
	if d.gone {
		return fmt.Errorf("fleet: node %d was given up on", d.node)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("fleet: kill node %d: %w", d.node, err)
	}
	if d.downAt.IsZero() {
		d.downAt = time.Now()
	}
	return nil
}

// Recovery is one crash's timeline, in ms from the kill: the exit seen, the
// replacement's Hello, W (every live peer's link up at it), a peer's
// registers applied, Ready; and that peer, and the pending updates it sent.
type Recovery struct {
	Node        int     `json:"node"`
	Incarnation int     `json:"incarnation"`
	DetectMS    float64 `json:"detect_ms"`
	HelloMS     float64 `json:"hello_ms"`
	WiredMS     float64 `json:"wired_ms"`
	TransferMS  float64 `json:"transfer_ms"`
	ReadyMS     float64 `json:"ready_ms"`
	FromPeer    int     `json:"from_peer"`
	Updates     int     `json:"updates"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// DetEvent is one SUSPECT/RESTORE observation scraped from the merged
// stream: the chaos classifier's detector evidence.
type DetEvent struct {
	Name     string
	Observer int
	Peer     int
	At       simtime.Time
}

// detLog collects detector events from the FanIn (it rides the sink list
// next to the Monitor, which ignores detector actions by name).
type detLog struct {
	n int // fleet size: a port's node is port mod n, whatever the incarnation

	mu     sync.Mutex
	events []DetEvent
}

func (l *detLog) Observe(e ta.Event) {
	if e.Action.Name != detector.ActSuspect && e.Action.Name != detector.ActRestore {
		return
	}
	peer, ok := e.Action.Payload.(ta.NodeID)
	if !ok {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, DetEvent{
		Name:     e.Action.Name,
		Observer: int(e.Action.Node) % l.n,
		Peer:     int(peer),
		At:       e.At,
	})
	l.mu.Unlock()
}

func (l *detLog) Flush(simtime.Time) {}

func (l *detLog) snapshot() []DetEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]DetEvent(nil), l.events...)
}

// FleetStats aggregates live measurements across daemons and
// incarnations — the chaos classifier's measurement evidence.
type FleetStats struct {
	// Measured is every incarnation of every node, folded; its SendDrops
	// counts the inter-node frames discarded: cut by a partition, or
	// refused by a full link queue.
	live.Measured
	// EpsByNode is each node's ε̂ over its incarnations: the clock-step
	// classifier judges the stepped node alone.
	EpsByNode []simtime.Duration
	Restarts  int
	Suspects  int
	Restores  int
	DetEvents []DetEvent
	// DetPeriod and DetTimeout are the heartbeat detector's effective
	// parameters: PlaneConfig's, or what NewPlane derived for a zero one.
	DetPeriod, DetTimeout simtime.Duration
	// Recoveries has one entry per replacement that reached Ready.
	Recoveries []Recovery
}

// Plane is the fleet control plane.
type Plane struct {
	cfg   PlaneConfig
	model live.Model
	epoch time.Time

	verdict *live.Verdict
	fanin   *FanIn
	det     *detLog

	daemons []*daemonState

	mu         sync.Mutex
	shutdown   bool
	crashes    int
	recoveries []Recovery

	wg sync.WaitGroup
}

// NewPlane validates the config and builds the plane's checker stack; no
// processes run until Start.
func NewPlane(cfg PlaneConfig) (*Plane, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("fleet: need ≥ 2 nodes, got %d", cfg.N)
	}
	if cfg.Registers <= 0 {
		cfg.Registers = 1
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	model := live.Model{Eps: cfg.Eps, D1: cfg.D1, D2: cfg.D2, Delta: cfg.Delta, C: cfg.C, Ell: cfg.Ell, Slack: cfg.Slack}
	if err := model.Validate(); err != nil {
		return nil, err // before any process is spawned to find it out
	}
	det := model.Detector(cfg.DetPeriod, cfg.DetTimeout)
	cfg.DetPeriod, cfg.DetTimeout = det.Period, det.Timeout
	tiers, err := register.ParseTiers(cfg.Tiers, cfg.Registers)
	if err != nil {
		return nil, err
	}
	p := &Plane{
		cfg:   cfg,
		model: model,
		// The detector rides as one extra instance per node, so each
		// incarnation's ports span N·(Registers+1).
		verdict: live.NewVerdict(live.VerdictConfig{
			Model: model, Nodes: cfg.N, Registers: cfg.Registers, Extra: 1,
			Tiers: tiers, Shards: cfg.CheckShards,
		}),
		det: &detLog{n: cfg.N},
	}
	p.fanin = NewFanIn(cfg.N, []exec.Sink{p.verdict, p.det})
	return p, nil
}

// logf writes a verbose plane log line.
func (p *Plane) logf(format string, args ...any) {
	if p.cfg.Verbose && p.cfg.Logw != nil {
		fmt.Fprintf(p.cfg.Logw, "pscfleet: "+format+"\n", args...)
	}
}

// Start anchors the epoch, spawns the N daemons, wires peers, and waits
// until every node is Ready (serviceable).
func (p *Plane) Start() error {
	p.epoch = time.Now()
	p.daemons = make([]*daemonState, p.cfg.N)
	for i := range p.daemons {
		p.daemons[i] = &daemonState{node: i, changed: make(chan struct{})}
	}
	for i := 0; i < p.cfg.N; i++ {
		if err := p.spawn(p.daemons[i], 0); err != nil {
			p.Close()
			return err
		}
	}
	if err := p.waitAllReady(20 * time.Second); err != nil {
		p.Close()
		return err
	}
	return nil
}

// spawn launches incarnation inc of d's node with its control channel on
// the process's stdin and stdout, sends it its configuration, and reads
// the channel until it ends; the peer map is re-broadcast when the
// daemon's Hello arrives.
func (p *Plane) spawn(d *daemonState, inc int) error {
	cmd := osexec.Command(p.cfg.NodeBin)
	if p.cfg.Logw != nil {
		cmd.Stderr = p.cfg.Logw // silent without -v, except to say why it failed or is not Ready
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("fleet: spawn node %d: %w", d.node, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("fleet: spawn node %d: %w", d.node, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: spawn node %d: %w", d.node, err)
	}
	ctl := newCtlConn(stdout, stdin)
	d.mu.Lock()
	d.inc = inc
	d.cmd = cmd
	d.ctl = ctl
	d.helloed = false
	d.byeSeen = false
	d.ready = false
	d.beat = msgBeat{}
	d.mu.Unlock()
	p.logf("node %d incarnation %d spawned (pid %d)", d.node, inc, cmd.Process.Pid)

	// Nothing else is sent before the Hello, so the config goes first. A
	// daemon that died before reading it ends its channel like any other.
	ctl.send(envelope{Config: &DaemonConfig{
		Node: d.node, N: p.cfg.N, Registers: p.cfg.Registers, Incarnation: inc,
		Epoch: p.epoch, Tiers: p.cfg.Tiers, Model: p.model,
		DetPeriod: p.cfg.DetPeriod, DetTimeout: p.cfg.DetTimeout, Verbose: p.cfg.Verbose,
	}})
	p.mu.Lock()
	closed := p.shutdown
	p.mu.Unlock()
	if closed {
		ctl.close() // Close passed this slot before ctl was set: drain at once
	}
	// Read, then reap, then remediate: Wait closes stdout, so it must follow
	// the last read, and every batch the incarnation shipped reaches the
	// FanIn before onExit freezes its stream.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.readLoop(d, inc, ctl)
		cmd.Wait()
		p.onExit(d, inc)
	}()
	return nil
}

// readLoop consumes incarnation inc's channel until it ends.
func (p *Plane) readLoop(d *daemonState, inc int, ctl *ctlConn) {
	var clientAddr string // published at Ready
	for {
		e, err := ctl.recv()
		if err != nil {
			return
		}
		switch {
		case e.Hello != nil:
			d.mu.Lock()
			d.nodeAddr = e.Hello.NodeAddr
			d.helloed = true
			if !d.downAt.IsZero() {
				d.rec.HelloMS = ms(time.Since(d.downAt))
			}
			d.mu.Unlock()
			clientAddr = e.Hello.ClientAddr
			p.logf("node %d incarnation %d hello (mesh %s, clients %s)", d.node, inc, e.Hello.NodeAddr, clientAddr)
			p.broadcastPeers()
		case e.Beat != nil:
			d.mu.Lock()
			d.beat = *e.Beat
			d.mu.Unlock()
		case e.Events != nil:
			// Before the merge: a stopped daemon's frozen watermark holds it
			// back, so the merged stream never shows the SUSPECT that frees it.
			p.watchSuspects(e.Events.Events)
			p.fanin.Push(d.node, e.Events.Events, e.Events.Watermark)
		case e.Ready != nil:
			d.mu.Lock()
			d.ready = true
			d.clientAddr = clientAddr
			if r := d.rec; !d.downAt.IsZero() {
				sinceDown := func(at simtime.Time) float64 { return ms(p.epoch.Add(time.Duration(at)).Sub(d.downAt)) }
				r.WiredMS, r.TransferMS = sinceDown(e.Ready.Wired), sinceDown(e.Ready.Applied)
				r.ReadyMS, r.FromPeer, r.Updates = ms(time.Since(d.downAt)), e.Ready.From, e.Ready.Updates
				p.mu.Lock()
				p.recoveries = append(p.recoveries, r)
				p.mu.Unlock()
				d.downAt = time.Time{}
			}
			d.notifyLocked()
			d.mu.Unlock()
			p.logf("node %d ready", d.node)
		case e.Bye != nil:
			d.mu.Lock()
			d.byeSeen = true
			d.base, d.beat = d.base.Fold(e.Bye.Measured), msgBeat{}
			d.notifyLocked()
			d.mu.Unlock()
		}
	}
}

// onExit handles a daemon process exit: graceful (Bye seen, or the plane
// is shutting down) is the end of the story; anything else is a crash to
// remediate — freeze the stream, respawn at once as the next incarnation,
// and re-wire everyone when it says Hello.
func (p *Plane) onExit(d *daemonState, inc int) {
	p.mu.Lock()
	down := p.shutdown
	p.mu.Unlock()

	d.mu.Lock()
	if d.byeSeen || down {
		d.mu.Unlock() // nothing to remediate
		return
	}
	// Crash: fold what the beats reported before death; the ring tail
	// that never shipped dies with the process (its ops stay open and
	// Monitor.Finish will submit them as pending).
	d.base, d.beat = d.base.Fold(d.beat.Measured), msgBeat{}
	d.ready = false
	d.clientAddr, d.nodeAddr = "", ""
	if d.downAt.IsZero() {
		d.downAt = time.Now()
	}
	d.rec = Recovery{Node: d.node, Incarnation: inc + 1, DetectMS: ms(time.Since(d.downAt))}
	d.gone = d.restarts >= p.cfg.MaxRestarts
	if !d.gone {
		d.restarts++
	}
	gone := d.gone
	d.notifyLocked()
	d.mu.Unlock()

	p.logf("node %d incarnation %d died", d.node, inc)
	p.fanin.MarkDead(d.node)
	if gone {
		p.logf("node %d: restart budget exhausted (%d); leaving down", d.node, p.cfg.MaxRestarts)
		p.broadcastPeers() // a replacement waiting for this node's link stops waiting
		return
	}
	// Floor first, then spawn: the replacement cannot have recorded
	// anything before this instant.
	floor := live.Since(p.epoch)
	p.fanin.Reset(d.node, floor)
	if err := p.spawn(d, inc+1); err != nil {
		p.logf("node %d respawn failed: %v", d.node, err)
		p.fanin.MarkDead(d.node)
	}
}

// watchSuspects is the liveness backstop behind process exit: for each
// SUSPECT of node i stamped At, τ later it confirms — kills i's incarnation
// of that moment if i's own stream is still below At. A node cut off from
// its peers keeps streaming and is left alone (DESIGN.md §5a *Liveness*).
func (p *Plane) watchSuspects(events []wireEvent) {
	for _, w := range events {
		peer, ok := w.Action.Payload.(ta.NodeID)
		if w.Action.Name != detector.ActSuspect || !ok || peer < 0 || int(peer) >= p.cfg.N {
			continue
		}
		d, at := p.daemons[peer], w.At
		d.mu.Lock()
		inc := d.inc
		d.mu.Unlock()
		due := p.epoch.Add(time.Duration(at.Add(p.cfg.DetTimeout)))
		time.AfterFunc(time.Until(due), func() { p.confirm(d, inc, at) })
	}
}

// confirm kills d's incarnation inc, suspected at at, unless its stream
// reached at since, it is gone, replaced or said Bye, or the plane is
// shutting down.
func (p *Plane) confirm(d *daemonState, inc int, at simtime.Time) {
	if p.fanin.Watermark(d.node) >= at {
		return // still streaming: cut off, not stopped
	}
	p.mu.Lock()
	down := p.shutdown
	p.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if down || d.inc != inc || d.byeSeen {
		return
	}
	if d.killLocked() == nil {
		p.logf("node %d incarnation %d: suspected at %v and silent since; killed", d.node, inc, at)
	}
}

// broadcastPeers sends every daemon the current mesh address map.
func (p *Plane) broadcastPeers() {
	addrs := make([]string, p.cfg.N)
	ctls := make([]*ctlConn, 0, p.cfg.N)
	for i, d := range p.daemons {
		d.mu.Lock()
		addrs[i] = d.nodeAddr
		if d.helloed && !d.byeSeen {
			ctls = append(ctls, d.ctl)
		}
		d.mu.Unlock()
	}
	msg := envelope{Peers: &msgPeers{Addrs: addrs}}
	for _, c := range ctls {
		c.send(msg)
	}
}

// waitAllReady blocks until every node is serviceable.
func (p *Plane) waitAllReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range p.daemons {
		if !d.await(time.Until(deadline), func() bool { return d.ready }) {
			return fmt.Errorf("fleet: nodes not ready within %v", timeout)
		}
	}
	return nil
}

// daemon returns node's slot, or an error naming a node the plane has no
// slot for: one outside 0 … N−1, or any before Start.
func (p *Plane) daemon(node int) (*daemonState, error) {
	if node < 0 || node >= len(p.daemons) {
		return nil, fmt.Errorf("fleet: no node %d", node)
	}
	return p.daemons[node], nil
}

// ClientAddr returns node's register-client address, or "" while the
// node is down or restoring its state — the dynamic load generator polls
// this — or is no node of the plane.
func (p *Plane) ClientAddr(node int) string {
	d, err := p.daemon(node)
	if err != nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.ready {
		return ""
	}
	return d.clientAddr
}

// Incarnation returns node's current incarnation and readiness; (0, false)
// for no node of the plane.
func (p *Plane) Incarnation(node int) (int, bool) {
	d, err := p.daemon(node)
	if err != nil {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inc, d.ready
}

// Kill SIGKILLs node's current process — the crash fault. Only a kill
// that landed counts as a crash.
func (p *Plane) Kill(node int) error {
	d, err := p.daemon(node)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.killLocked(); err != nil {
		return err
	}
	p.mu.Lock()
	p.crashes++
	p.mu.Unlock()
	return nil
}

// WaitReplaced blocks until node runs an incarnation above minInc and is
// Ready, or the timeout passes; false at once for no node of the plane.
func (p *Plane) WaitReplaced(node, minInc int, timeout time.Duration) bool {
	d, err := p.daemon(node)
	return err == nil && d.await(timeout, func() bool { return d.inc > minInc && d.ready })
}

// sendFault delivers a fault command to one daemon.
func (p *Plane) sendFault(node int, f msgFault) error {
	d, err := p.daemon(node)
	if err != nil {
		return err
	}
	d.mu.Lock()
	ctl := d.ctl
	ok := d.helloed && !d.byeSeen
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: node %d not connected", node)
	}
	return ctl.send(envelope{Fault: &f})
}

// SetPartition cuts (or heals) the link between a and b at both ends.
func (p *Plane) SetPartition(a, b int, on bool) error {
	for _, node := range [2]int{a, b} {
		if _, err := p.daemon(node); err != nil {
			return err
		}
	}
	err1 := p.sendFault(a, msgFault{PartitionPeer: b, PartitionOn: on})
	err2 := p.sendFault(b, msgFault{PartitionPeer: a, PartitionOn: on})
	if err1 != nil {
		return err1
	}
	return err2
}

// SetDelay sets node's outbound extra delay (0 heals).
func (p *Plane) SetDelay(node int, d simtime.Duration) error {
	w, err := simtime.ToWall(d)
	if err != nil {
		return err
	}
	return p.sendFault(node, msgFault{PartitionPeer: -1, SetDelay: true, DelayUS: int64(w / time.Microsecond)})
}

// SetClockStep sets node's clock offset (0 heals the step; the measured
// ε̂ keeps the excursion's high-water mark, as a real clock audit would).
func (p *Plane) SetClockStep(node int, d simtime.Duration) error {
	w, err := simtime.ToWall(d)
	if err != nil {
		return err
	}
	return p.sendFault(node, msgFault{PartitionPeer: -1, SetStep: true, StepUS: int64(w / time.Microsecond)})
}

// Stats aggregates the fleet's measurements: per-incarnation beats folded
// with the totals of dead incarnations, plus the detector evidence log.
func (p *Plane) Stats() FleetStats {
	s := FleetStats{
		EpsByNode: make([]simtime.Duration, p.cfg.N),
		DetPeriod: p.cfg.DetPeriod, DetTimeout: p.cfg.DetTimeout,
	}
	for i, d := range p.daemons {
		d.mu.Lock()
		m := d.base.Fold(d.beat.Measured)
		s.Measured = s.Measured.Fold(m)
		s.EpsByNode[i] = m.Eps
		s.Restarts += d.restarts
		d.mu.Unlock()
	}
	p.mu.Lock()
	s.Recoveries = append([]Recovery(nil), p.recoveries...)
	p.mu.Unlock()
	s.DetEvents = p.det.snapshot()
	for _, e := range s.DetEvents {
		if e.Name == detector.ActSuspect {
			s.Suspects++
		} else {
			s.Restores++
		}
	}
	return s
}

// Crashes returns the number of chaos-commanded kills so far.
func (p *Plane) Crashes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashes
}

// FleetVerdict is the checker outcome over the merged stream.
type FleetVerdict struct {
	Violations  int
	CheckStates int
	Messages    []string
	Clamped     int
	Emitted     int
}

// Shutdown gracefully stops the fleet: every live daemon drains and says
// Bye, the fan-in finishes (still-open crash-orphaned ops submit as
// pending), and the checker verdict comes back.
func (p *Plane) Shutdown() FleetVerdict {
	p.mu.Lock()
	p.shutdown = true
	p.mu.Unlock()

	for _, d := range p.daemons {
		d.mu.Lock()
		ctl := d.ctl
		live := d.helloed && !d.byeSeen && !d.gone
		d.mu.Unlock()
		if live {
			ctl.send(envelope{Shutdown: &msgShutdown{}})
		}
	}
	// Wait for Byes (bounded), then force whatever remains.
	deadline := time.Now().Add(10 * time.Second)
	for _, d := range p.daemons {
		d.await(time.Until(deadline), func() bool { return !d.helloed || d.byeSeen || d.gone })
	}
	for _, d := range p.daemons {
		d.mu.Lock()
		cmd := d.cmd
		bye := d.byeSeen
		d.mu.Unlock()
		if !bye && cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	p.Close()

	p.fanin.Finish()
	out := p.verdict.Finish()
	for _, e := range out.Tail {
		p.logf("trace: seq=%d at=%d %s src=%s", e.Seq, int64(e.At), e.Action.Label(), e.Src)
	}
	return FleetVerdict{
		Violations: out.Violations, CheckStates: out.States, Messages: out.Messages,
		Clamped: p.fanin.Clamped(), Emitted: p.fanin.Emitted(),
	}
}

// Close closes every daemon's channel, which drains the daemon, and
// returns once every incarnation's reader has reaped its process.
func (p *Plane) Close() {
	p.mu.Lock()
	p.shutdown = true
	p.mu.Unlock()
	for _, d := range p.daemons {
		d.mu.Lock()
		if d.ctl != nil {
			d.ctl.close()
		}
		d.mu.Unlock()
	}
	p.wg.Wait()
}
