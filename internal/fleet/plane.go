package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
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
	Seed    int64
	NodeBin string // pscnode binary path
	// CheckShards is read by nothing: the plane checks every register
	// inline. It stays only because the benchmark harness sets it; ROADMAP
	// 1A(j) drops it together with that line, as it does Seed.
	CheckShards int

	// MaxRestarts bounds the replacements a node slot gets, each spawned
	// the moment the crash is seen.
	MaxRestarts int

	Verbose bool
	Logw    io.Writer
}

// daemon is a started pscnode and the plane's end of its control channel.
type daemon struct {
	cmd *osexec.Cmd
	ctl *ctlConn
}

// daemonState is a node slot's IO and measurements, which the policy does
// not see: the current incarnation's process and control channel.
type daemonState struct {
	daemon
	beat live.Measured // the current incarnation's, as of its last beat
	base live.Measured // dead incarnations, folded
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

// Plane is the fleet control plane, the IO driver of its policy: under one
// mutex it turns every control message, process exit, due confirm and
// public call into a policy input, and carries out the commands that come
// back.
type Plane struct {
	cfg   PlaneConfig
	model live.Model
	epoch time.Time

	verdict *live.Verdict
	fanin   *FanIn

	mu        sync.Mutex
	pol       *policy
	daemons   []*daemonState // one per slot, from Start
	changed   chan struct{}  // closed and replaced at every step
	spare     *daemon        // started, waiting for a Config: the next spawn's
	refilling bool           // while a spare is being started

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
			Model: model, Nodes: cfg.N, Registers: cfg.Registers, Extra: 1, Tiers: tiers,
		}),
		pol:     &policy{maxRestarts: cfg.MaxRestarts, tau: cfg.DetTimeout, slots: make([]slot, cfg.N)},
		changed: make(chan struct{}),
	}
	p.fanin = NewFanIn(cfg.N, []exec.Sink{p.verdict})
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
	p.mu.Lock()
	var err error
	for i := range p.daemons {
		p.daemons[i] = new(daemonState)
		if err == nil {
			err = p.spawn(i, 0)
		}
	}
	p.mu.Unlock()
	if err == nil && !p.wait(20*time.Second, func() bool { return p.pol.all(func(s slot) bool { return s.ready }) }) {
		err = errors.New("fleet: nodes not ready within 20s")
	}
	if err != nil {
		p.Close()
	}
	return err
}

// start launches a pscnode with its control channel on the process's stdin
// and stdout, where it waits for its Config: the one process starter, for
// the spare and a cold start alike.
func (p *Plane) start() (*daemon, error) {
	cmd := osexec.Command(p.cfg.NodeBin)
	if p.cfg.Logw != nil {
		cmd.Stderr = p.cfg.Logw // silent without -v, except to say why it failed or is not Ready
	}
	stdin, err := cmd.StdinPipe()
	stdout, err2 := cmd.StdoutPipe()
	if err = errors.Join(err, err2); err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return nil, err
	}
	return &daemon{cmd: cmd, ctl: newCtlConn(stdout, stdin)}, nil
}

// reap kills d's process and waits for it.
func (d *daemon) reap() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// spawn makes incarnation inc of node out of the spare, or out of a process
// it starts when there is none or the spare died unused, and sends it its
// configuration. A goroutine reads the channel until it ends, then reaps
// the process, then steps its exit: Wait closes stdout, so it must follow
// the last read, and every batch the incarnation shipped reaches the FanIn
// before its stream is frozen. Caller holds p.mu.
func (p *Plane) spawn(node, inc int) error {
	// Nothing else is sent before the Hello, so the config goes first.
	config := envelope{Config: &DaemonConfig{
		Node: node, N: p.cfg.N, Registers: p.cfg.Registers, Incarnation: inc,
		Epoch: p.epoch, Tiers: p.cfg.Tiers, Model: p.model,
		DetPeriod: p.cfg.DetPeriod, DetTimeout: p.cfg.DetTimeout, Verbose: p.cfg.Verbose,
	}}
	d := p.spare
	if p.spare = nil; d == nil || d.ctl.send(config) != nil {
		if d != nil {
			d.reap() // its stdin is a broken pipe: it died unused
		}
		var err error
		if d, err = p.start(); err != nil {
			return fmt.Errorf("fleet: spawn node %d: %w", node, err)
		}
		// A daemon that died before reading it ends its channel like any other.
		d.ctl.send(config)
	}
	ds := p.daemons[node]
	ds.daemon = *d
	p.logf("node %d incarnation %d spawned (pid %d)", node, inc, d.cmd.Process.Pid)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.readLoop(node, inc, d.ctl)
		d.cmd.Wait()
		// What the beats reported before death; a crash's ring tail that
		// never shipped dies with the process (its ops stay open and
		// Monitor.Finish will submit them as pending).
		p.mu.Lock()
		ds.base, ds.beat = ds.base.Fold(ds.beat), live.Measured{}
		p.mu.Unlock()
		p.step(input{kind: inExit, node: node, inc: inc})
	}()
	return nil
}

// refill starts a spare outside p.mu once the fleet is settled — every
// slot Ready or given up on, one with restarts left, the plane not shut
// down — so its start never competes with a recovery. Caller holds p.mu.
func (p *Plane) refill() {
	spent := func(s slot) bool { return s.gone || s.restarts >= p.pol.maxRestarts }
	if p.spare != nil || p.refilling || p.pol.shutdown || p.pol.all(spent) || !p.pol.all(func(s slot) bool { return s.ready || s.gone }) {
		return
	}
	p.refilling = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		d, err := p.start()
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.spare, p.refilling = d, false; err != nil {
			p.logf("spare: %v", err)
		}
	}()
}

// readLoop consumes incarnation inc's channel until it ends.
func (p *Plane) readLoop(node, inc int, ctl *ctlConn) {
	for {
		e, err := ctl.recv()
		if err != nil {
			return
		}
		switch {
		case e.Hello != nil:
			p.step(input{kind: inHello, node: node, inc: inc, hello: *e.Hello})
		case e.Ready != nil:
			p.step(input{kind: inReady, node: node, inc: inc, ready: *e.Ready})
		case e.Beat != nil:
			p.mu.Lock()
			p.daemons[node].beat = e.Beat.Measured
			p.mu.Unlock()
		case e.Bye != nil:
			p.mu.Lock()
			p.daemons[node].beat = e.Bye.Measured // the final figures; the exit folds them
			p.mu.Unlock()
			p.step(input{kind: inBye, node: node, inc: inc})
		case e.Events != nil:
			// Before the merge: a stopped daemon's frozen watermark holds it
			// back, so the merged stream never shows the SUSPECT that frees it.
			for _, w := range e.Events.Events {
				peer, ok := w.Action.Payload.(ta.NodeID)
				if ok && (w.Action.Name == detector.ActSuspect || w.Action.Name == detector.ActRestore) {
					p.step(input{kind: inDetector, node: node, det: DetEvent{Name: w.Action.Name, Observer: node, Peer: int(peer), At: w.At}})
				}
			}
			p.fanin.Push(node, e.Events.Events, e.Events.Watermark)
		}
	}
}

// step stamps in and steps the policy through it under p.mu, carries out
// the commands, a failed spawn's being the next input, and wakes every
// wait. The error is an operator call's refusal or a kill that did not
// land.
func (p *Plane) step(in input) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for queue := []input{in}; len(queue) > 0; queue = queue[1:] {
		in := queue[0]
		in.now = live.Since(p.epoch)
		for _, c := range p.pol.step(in) {
			switch c.kind {
			case doSpawn:
				if err := p.spawn(c.node, c.inc); err != nil {
					p.logf("node %d respawn failed: %v", c.node, err)
					queue = append(queue, input{kind: inSpawnFailed, node: c.node, inc: c.inc})
				}
			case doKill:
				// A process reaped since its exit was seen and not yet
				// stepped is down all the same: that exit comes next.
				if err := p.daemons[c.node].cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
					errs = append(errs, fmt.Errorf("fleet: kill node %d: %w", c.node, err))
				}
			case doSend: // a few small messages: a stopped daemon's stdin pipe holds them
				for i, d := range p.daemons {
					if s := p.pol.slots[i]; s.helloed && !s.bye {
						d.ctl.send(c.env)
					}
				}
			case doConfirm:
				confirm := input{kind: inConfirm, node: c.node, inc: c.inc, at: c.at}
				time.AfterFunc(time.Until(p.epoch.Add(time.Duration(c.due))), func() {
					confirm.watermark = p.fanin.Watermark(confirm.node)
					p.step(confirm)
				})
			case doMarkDead:
				p.fanin.MarkDead(c.node)
			case doReset:
				p.fanin.Reset(c.node, c.at)
			case doLog:
				p.logf(c.msg, c.args...)
			case doRefuse:
				errs = append(errs, fmt.Errorf(c.msg, c.args...))
			}
		}
	}
	p.refill()
	close(p.changed)
	p.changed = make(chan struct{})
	return errors.Join(errs...)
}

// wait blocks until settled, evaluated under p.mu, holds or timeout has
// passed, and reports whether it held.
func (p *Plane) wait(timeout time.Duration, settled func() bool) bool {
	expired := time.After(timeout)
	for {
		p.mu.Lock()
		done, changed := settled(), p.changed
		p.mu.Unlock()
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

// check returns an error naming a node the plane has no slot for: one
// outside 0 … N−1, or any before Start.
func (p *Plane) check(node int) error {
	if node < 0 || node >= len(p.daemons) {
		return fmt.Errorf("fleet: no node %d", node)
	}
	return nil
}

// ClientAddr returns node's register-client address, or "" while the
// node is down or restoring its state — the dynamic load generator polls
// this — or is no node of the plane.
func (p *Plane) ClientAddr(node int) string {
	if p.check(node) != nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pol.slots[node].clientAddr
}

// Incarnation returns node's current incarnation and readiness; (0, false)
// for no node of the plane.
func (p *Plane) Incarnation(node int) (int, bool) {
	if p.check(node) != nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.pol.slots[node]
	return s.inc, s.ready
}

// Kill SIGKILLs node's current process — the crash fault. Only a kill
// that went out counts as a crash: one at a node given up on or that said
// Bye, or after Shutdown, is refused.
func (p *Plane) Kill(node int) error {
	if err := p.check(node); err != nil {
		return err
	}
	return p.step(input{kind: inKill, node: node})
}

// WaitReplaced blocks until node runs an incarnation above minInc and is
// Ready, or the timeout passes; false at once for no node of the plane,
// and as soon as the plane gives up on node.
func (p *Plane) WaitReplaced(node, minInc int, timeout time.Duration) bool {
	if p.check(node) != nil {
		return false
	}
	s := &p.pol.slots[node]
	replaced := false
	p.wait(timeout, func() bool {
		replaced = s.inc > minInc && s.ready
		return replaced || s.gone
	})
	return replaced
}

// sendFault delivers a fault command to one daemon.
func (p *Plane) sendFault(node int, f msgFault) error {
	if err := p.check(node); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.pol.slots[node]; !s.helloed || s.bye {
		return fmt.Errorf("fleet: node %d not connected", node)
	}
	return p.daemons[node].ctl.send(envelope{Fault: &f})
}

// SetPartition cuts (or heals) the link between a and b at both ends.
func (p *Plane) SetPartition(a, b int, on bool) error {
	if err := errors.Join(p.check(a), p.check(b)); err != nil {
		return err
	}
	return errors.Join(p.sendFault(a, msgFault{PartitionPeer: b, PartitionOn: on}), p.sendFault(b, msgFault{PartitionPeer: a, PartitionOn: on}))
}

// SetDelay sets node's outbound extra delay (0 heals).
func (p *Plane) SetDelay(node int, d simtime.Duration) error {
	w, err := simtime.ToWall(d)
	if err != nil {
		return err
	}
	return p.sendFault(node, msgFault{PartitionPeer: -1, SetDelay: true, DelayUS: int64(w / time.Microsecond)})
}

// SetClockStep sets node's clock offset, forward or backward (0 heals the
// step; the measured ε̂ keeps the excursion's high-water mark, as a real
// clock audit would). A step is an offset, not a span to wait, so it
// reaches the daemon with its sign.
func (p *Plane) SetClockStep(node int, d simtime.Duration) error {
	return p.sendFault(node, msgFault{PartitionPeer: -1, SetStep: true, StepUS: int64(d / simtime.Microsecond)})
}

// Stats aggregates the fleet's measurements: per-incarnation beats folded
// with the totals of dead incarnations, plus the detector evidence.
func (p *Plane) Stats() FleetStats {
	s := FleetStats{
		EpsByNode: make([]simtime.Duration, p.cfg.N),
		DetPeriod: p.cfg.DetPeriod, DetTimeout: p.cfg.DetTimeout,
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range p.daemons {
		m := d.base.Fold(d.beat)
		s.Measured = s.Measured.Fold(m)
		s.EpsByNode[i] = m.Eps
		s.Restarts += p.pol.slots[i].restarts
	}
	s.Recoveries = append([]Recovery(nil), p.pol.recoveries...)
	s.DetEvents = append([]DetEvent(nil), p.pol.det...)
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
	return p.pol.crashes
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
	p.step(input{kind: inShutdown})
	// Wait for Byes (bounded); Close forces whatever remains.
	p.wait(10*time.Second, func() bool { return p.pol.all(func(s slot) bool { return !s.helloed || s.bye }) })
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

// Close closes every daemon's channel, SIGKILLs every process that has not
// said Bye (a stopped one never drains), reaps the spare, and returns once
// every incarnation's reader has reaped its process. The policy spawns and
// kills nothing after it.
func (p *Plane) Close() {
	p.step(input{kind: inShutdown})
	p.mu.Lock()
	for i, d := range p.daemons {
		if d.ctl != nil {
			d.ctl.close()
		}
		if d.cmd != nil && !p.pol.slots[i].bye {
			d.cmd.Process.Kill()
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	if p.spare != nil { // no refill starts after shutdown
		p.spare.reap()
	}
}
