package fleet

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

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

// DaemonConfig is everything one node process needs: the plane's first
// message on the daemon's control channel.
type DaemonConfig struct {
	Node        int
	N           int
	Registers   int // data registers; the detector rides as instance Registers
	Incarnation int
	// Epoch is the fleet-wide simulated Zero: every process stamps events as
	// wall time since this instant, so all streams share one timeline. It
	// crosses the channel without its monotonic reading.
	Epoch time.Time
	Tiers string // register tier spec ("" = all lin)

	Model                 live.Model
	DetPeriod, DetTimeout simtime.Duration
	Verbose               bool
}

// forwarder bridges the daemon's recorder onto the control channel: it
// buffers observed events and, at each recorder flush, sends the batch
// with the flush bound as the merge watermark. Observe and Flush run on the
// recorder's consumer goroutine, so a slow control link backpressures
// through the recorder's queue rather than losing events. The first failed
// send marks the forwarder dead and begins the daemon's teardown: later
// batches are lost, but so is the plane that would have read them.
type forwarder struct {
	ctl       *ctlConn
	beginStop func()
	buf       []wireEvent
	dead      bool
}

func (f *forwarder) Observe(e ta.Event) {
	if !f.dead {
		f.buf = append(f.buf, wireEvent{Action: e.Action, At: e.At})
	}
}

func (f *forwarder) Flush(bound simtime.Time) {
	if f.dead {
		return
	}
	// A watermark-only message still ships: the plane's merge frontier
	// moves even when this node is idle.
	m := msgEvents{Events: f.buf, Watermark: bound}
	if err := f.ctl.send(envelope{Events: &m}); err != nil {
		f.dead = true
		f.beginStop()
	}
	f.buf = f.buf[:0] // the encoder is done with it
}

// RunDaemon runs one fleet node to completion over its control channel,
// reading the plane's messages from in and writing its own to out: take the
// configuration the plane sends first, host the node's register instances
// and heartbeat detector on the live runtime over the mesh transport,
// stream events and beats back, apply commanded faults, and tear down
// gracefully (Bye) on Shutdown, on interrupt, or when in ends — or die
// abruptly when chaos SIGKILLs the process, which is the point. stderr
// takes the verbose log and why a replacement is not Ready.
func RunDaemon(in io.Reader, out io.Writer, interrupt <-chan os.Signal, stderr io.Writer) error {
	ctl := newCtlConn(in, out)
	first, err := ctl.recv()
	if err == io.EOF {
		return nil // no Config, no word: an unused spare whose plane is gone
	}
	if err != nil {
		return fmt.Errorf("read config: %w", err)
	}
	if first.Config == nil {
		return fmt.Errorf("first message is %s, not a Config", first.kind())
	}
	cfg := *first.Config
	if cfg.Registers <= 0 {
		cfg.Registers = 1
	}
	logf := func(format string, args ...any) {
		if cfg.Verbose {
			fmt.Fprintf(stderr, "pscnode[%d.%d]: "+format+"\n",
				append([]any{cfg.Node, cfg.Incarnation}, args...)...)
		}
	}

	tiers, err := register.ParseTiers(cfg.Tiers, cfg.Registers)
	if err != nil {
		return err
	}
	mesh, err := live.NewMeshTransport(cfg.Node, cfg.N, "")
	if err != nil {
		return err
	}
	// Hello as soon as the mesh listens, so the peers re-dial during Deploy.
	hello := msgHello{NodeAddr: mesh.Addr(cfg.Node)}
	if err := ctl.send(envelope{Hello: &hello}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	var (
		wg        sync.WaitGroup
		quiesce   = make(chan struct{}) // stops the beat ticker
		stopOnce  sync.Once
		teardown  = make(chan struct{}) // reader/signal/send failure → main teardown
		beginStop = func() { stopOnce.Do(func() { close(teardown) }) }
	)
	fw := &forwarder{ctl: ctl, beginStop: beginStop}
	// The heartbeat detector rides as the one extra instance: hosted after
	// the data registers, never offered to a client.
	rt, srv, err := live.Deploy(cfg.Model, tiers,
		[]core.AlgorithmFactory{detector.Factory(cfg.Model.Detector(cfg.DetPeriod, cfg.DetTimeout))},
		live.Options{
			N:         cfg.N,
			Transport: mesh,
			Epoch:     cfg.Epoch,
			PortBase:  cfg.Incarnation * cfg.N * (cfg.Registers + 1),
		}, fw)
	if err != nil {
		return err
	}
	if cfg.Incarnation > 0 {
		rt.Recovering() // its registers are empty until a peer's are copied
	}
	if err := rt.Start(); err != nil {
		return err
	}
	srv.Start()
	logf("up: mesh=%s clients=%s", hello.NodeAddr, srv.Addrs()[cfg.Node])

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

	// Command reader (peers, faults, shutdown), started after the runtime so
	// Recover never runs before Start; peers hands the readiness goroutine
	// the latest live peers. Not joined: it ends at Shutdown or with the channel.
	peers := make(chan []ta.NodeID, 1)
	go func() {
		for {
			e, err := ctl.recv()
			if err != nil {
				beginStop() // the channel ended: the plane is gone or closed it
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
	// The node's client address goes with its Ready.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var transfer <-chan live.Transfer
		ready := msgReady{ClientAddr: srv.Addrs()[cfg.Node], From: -1}
		for {
			select {
			case ps := <-peers:
				if cfg.Incarnation > 0 {
					transfer = rt.Recover(ta.NodeID(cfg.Node), ps, cfg.Model.TransferWait())
					continue
				}
			case tr := <-transfer:
				if tr.Err != nil { // said without -v too
					fmt.Fprintf(stderr, "pscnode[%d.%d]: not ready: %v\n", cfg.Node, cfg.Incarnation, tr.Err)
					continue
				}
				ready.Wired, ready.Applied, ready.From, ready.Updates = tr.Wired, tr.Applied, int(tr.From), tr.Updates
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
	case sig := <-interrupt:
		logf("signal %v", sig)
		beginStop()
	}

	// Graceful teardown: close the client surface, stop the runtime (its
	// final recorder flush sends the tail through the forwarder), and say
	// Bye — the message whose absence marks a crash.
	srv.Close()
	m := rt.Stop()
	close(quiesce)
	wg.Wait()
	bye := msgBye{Measured: m}
	err = ctl.send(envelope{Bye: &bye})
	logf("bye: ops recorded, eps=%v reconnects=%d", m.Eps, m.Reconnects)
	return err
}
