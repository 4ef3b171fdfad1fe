package fleet

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/detector"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// DefaultModel is the vector pscfleet and pscnode default their flags to:
// loopback between OS processes is slower and noisier than inside one, so
// every budget is wider than pscserve's.
func DefaultModel() live.Model {
	const ms = simtime.Millisecond
	return live.Model{Eps: 2 * ms, D2: 10 * ms, Delta: ms, Ell: 5 * ms, Slack: 6 * ms}
}

// DaemonConfig is everything one node process needs, passed by the plane
// on the pscnode command line.
type DaemonConfig struct {
	Node        int
	N           int
	Registers   int // data registers; the detector rides as instance Registers
	Incarnation int
	PlaneAddr   string
	// EpochUnixNano is the fleet-wide simulated Zero: every process stamps
	// events as wall time since this instant, so all streams share one
	// timeline.
	EpochUnixNano int64
	Seed          int64
	Tiers         string // register tier spec ("" = all lin)

	Model                 live.Model
	DetPeriod, DetTimeout simtime.Duration

	// Interrupt, when non-nil, triggers the same graceful teardown a
	// Shutdown command does (SIGINT/SIGTERM wiring lives in cmd/pscnode).
	Interrupt <-chan os.Signal
	Verbose   bool
	Stderr    interface{ Write([]byte) (int, error) }
}

// forwarder bridges the daemon's recorder onto the control connection: it
// buffers observed events and, at each recorder flush, ships the batch
// with the flush bound as the merge watermark. Observe/Flush run on the
// recorder's single consumer goroutine; the channel hands batches to a
// writer so a slow control link backpressures into the recorder's rings
// rather than losing events.
type forwarder struct {
	buf []wireEvent
	ch  chan msgEvents
	// dead is closed when the writer goroutine exits (control link gone):
	// ship stops blocking so the recorder can still drain and Stop — the
	// batches are lost, but so is the plane that would have read them.
	dead chan struct{}
}

func (f *forwarder) Observe(e ta.Event) {
	f.buf = append(f.buf, wireEvent{Action: e.Action, At: e.At})
}

func (f *forwarder) Flush(bound simtime.Time) {
	m := msgEvents{Watermark: bound}
	if len(f.buf) > 0 {
		m.Events = f.buf
		f.buf = nil
	}
	// A watermark-only message still ships: the plane's merge frontier
	// moves even when this node is idle.
	select {
	case f.ch <- m:
	case <-f.dead:
	}
}

// RunDaemon runs one fleet node to completion: connect to the plane,
// host the node's register instances and heartbeat detector on the live
// runtime over the mesh transport, stream events and beats back, apply
// commanded faults, and tear down gracefully on Shutdown/SIGTERM (Bye) —
// or die abruptly when chaos SIGKILLs the process, which is the point.
func RunDaemon(cfg DaemonConfig) error {
	if cfg.Registers <= 0 {
		cfg.Registers = 1
	}
	logf := func(format string, args ...any) {
		if cfg.Verbose && cfg.Stderr != nil {
			fmt.Fprintf(cfg.Stderr, "pscnode[%d.%d]: "+format+"\n",
				append([]any{cfg.Node, cfg.Incarnation}, args...)...)
		}
	}

	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	p := cfg.Model.Params()
	tiers, err := register.ParseTiers(cfg.Tiers, cfg.Registers)
	if err != nil {
		return err
	}

	conn, err := net.Dial("tcp", cfg.PlaneAddr)
	if err != nil {
		return fmt.Errorf("dial plane: %w", err)
	}
	ctl := newCtlConn(conn)

	mesh, err := live.NewMeshTransport(cfg.Node, cfg.N, "")
	if err != nil {
		return err
	}
	regs := cfg.Registers + 1 // +1: the heartbeat detector instance
	rt, err := live.New(live.Options{
		N:         cfg.N,
		Registers: regs,
		Bounds:    cfg.Model.Bounds(),
		Ell:       cfg.Model.Ell,
		Clocks:    clock.PerfectFactory(),
		Transport: mesh,
		Local:     []int{cfg.Node},
		Epoch:     time.Unix(0, cfg.EpochUnixNano),
		PortBase:  cfg.Incarnation * cfg.N * regs,
	}, register.Factory(register.NewS, p))
	if err != nil {
		return err
	}
	if cfg.Incarnation > 0 {
		rt.Recovering() // its registers are empty until a peer's are copied
	}
	rt.SetRegisterFactory(func(reg int) core.AlgorithmFactory {
		if reg == cfg.Registers {
			return detector.Factory(cfg.Model.Detector(cfg.DetPeriod, cfg.DetTimeout))
		}
		return tiers[reg].Factory(p)
	})

	fw := &forwarder{ch: make(chan msgEvents, 256), dead: make(chan struct{})}
	rt.AddSink(fw)

	srv, err := live.NewServer(rt)
	if err != nil {
		return err
	}
	srv.SetTiers(tiers) // the data registers only: no client may address the detector instance
	if err := rt.Start(); err != nil {
		return err
	}
	srv.Start()

	hello := msgHello{
		Node:        cfg.Node,
		Incarnation: cfg.Incarnation,
		Pid:         os.Getpid(),
		NodeAddr:    mesh.Addr(cfg.Node),
		ClientAddr:  srv.Addrs()[cfg.Node],
	}
	if err := ctl.send(envelope{Hello: &hello}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	logf("up: mesh=%s clients=%s", hello.NodeAddr, hello.ClientAddr)

	var (
		wg        sync.WaitGroup
		quiesce   = make(chan struct{}) // stops beat/forward writers
		stopOnce  sync.Once
		teardown  = make(chan struct{}) // reader/signal → main teardown
		beginStop = func() { stopOnce.Do(func() { close(teardown) }) }
	)

	// Forwarder writer: ship event batches as they flush.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(fw.dead)
		for {
			select {
			case ev := <-fw.ch:
				if err := ctl.send(envelope{Events: &ev}); err != nil {
					beginStop()
					return
				}
			case <-quiesce:
				return
			}
		}
	}()

	// Beat ticker: the measured bounds so far, for Plane.Stats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(beatPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				b := msgBeat{Measured: rt.Snapshot()}
				if err := ctl.send(envelope{Beat: &b}); err != nil {
					beginStop()
					return
				}
			case <-quiesce:
				return
			}
		}
	}()

	// Command reader: peers, faults, shutdown. peers hands the latest
	// announcement's live peers to the readiness goroutine.
	peers := make(chan []ta.NodeID, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			e, err := ctl.recv()
			if err != nil {
				beginStop() // plane gone
				return
			}
			switch {
			case e.Peers != nil:
				var live []ta.NodeID
				for k := 1; k < len(e.Peers.Addrs); k++ { // ring order from this node's successor
					if j := (cfg.Node + k) % len(e.Peers.Addrs); e.Peers.Addrs[j] != "" {
						mesh.SetPeer(j, e.Peers.Addrs[j])
						live = append(live, ta.NodeID(j))
					}
				}
				select {
				case <-peers: // an announcement nobody read yet is out of date
				default:
				}
				peers <- live
			case e.Fault != nil:
				f := e.Fault
				if f.PartitionPeer >= 0 {
					mesh.SetPartition(f.PartitionPeer, f.PartitionOn)
					logf("partition peer=%d on=%v", f.PartitionPeer, f.PartitionOn)
				}
				if f.SetDelay {
					mesh.SetDelay(time.Duration(f.DelayUS) * time.Microsecond)
					logf("delay=%dus", f.DelayUS)
				}
				if f.SetStep {
					err := rt.SetClockStep(cfg.Node, simtime.Duration(f.StepUS)*simtime.Microsecond)
					logf("clockstep=%dus err=%v", f.StepUS, err)
				}
			case e.Shutdown != nil:
				beginStop()
				return
			}
		}
	}()

	// Readiness: a first incarnation is Ready once it knows its peers, a
	// replacement once Recover has copied a live peer's registers into its
	// own. Every announcement restarts that against the peers then alive;
	// one that fails leaves the node not Ready, saying why, until the next.
	// The plane withholds this node's client address until Ready.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var transfer <-chan live.Transfer
		ready := msgReady{From: -1}
		for {
			select {
			case ps := <-peers:
				if cfg.Incarnation > 0 {
					transfer = rt.Recover(ta.NodeID(cfg.Node), ps, cfg.Model.TransferWait())
					continue
				}
			case tr := <-transfer:
				if tr.Err != nil {
					if cfg.Stderr != nil { // said without -v too
						fmt.Fprintf(cfg.Stderr, "pscnode[%d.%d]: not ready: %v\n", cfg.Node, cfg.Incarnation, tr.Err)
					}
					continue
				}
				ready = msgReady{Wired: tr.Wired, Applied: tr.Applied, From: int(tr.From), Updates: tr.Updates}
			case <-teardown:
				return
			}
			if err := ctl.send(envelope{Ready: &ready}); err != nil {
				beginStop()
			}
			return
		}
	}()

	// Block until something asks us to stop.
	select {
	case <-teardown:
	case sig := <-sigChan(cfg.Interrupt):
		logf("signal %v", sig)
		beginStop()
	}

	// Graceful teardown: close the client surface, stop the runtime (its
	// final recorder flush pushes the tail through the forwarder), drain
	// the last batches onto the wire, and say Bye — the message whose
	// absence marks a crash.
	srv.Close()
	m := rt.Stop()
	// Unblock the command reader (a signal-initiated teardown leaves it
	// blocked in recv); writes — the Bye below — are unaffected.
	ctl.conn.SetReadDeadline(time.Now())
	close(quiesce)
	wg.Wait()
drain:
	for {
		select {
		case ev := <-fw.ch:
			if err := ctl.send(envelope{Events: &ev}); err != nil {
				break drain
			}
		default:
			break drain
		}
	}
	bye := msgBye{Measured: m}
	err = ctl.send(envelope{Bye: &bye})
	ctl.close()
	logf("bye: ops recorded, eps=%v reconnects=%d", m.Eps, m.Reconnects)
	return err
}

// sigChan adapts a possibly-nil signal channel for select (nil blocks
// forever).
func sigChan(c <-chan os.Signal) <-chan os.Signal {
	if c == nil {
		return make(chan os.Signal)
	}
	return c
}
