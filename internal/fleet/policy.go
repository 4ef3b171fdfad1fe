package fleet

import (
	"psclock/internal/detector"
	"psclock/internal/simtime"
)

// policy is the plane's decisions (DESIGN.md §5a *Recovery*, *Liveness*) as
// one transition function: every node slot's state, and step, which turns
// what the plane observed into what it must do. It reads no clock, starts
// no goroutine, takes no lock and does no IO — each input carries its
// instant on the fleet's timeline, and Plane carries out the commands — so
// TestPlanePolicyExhaustive can check it exhaustively.
type policy struct {
	maxRestarts int
	tau         simtime.Duration // the detector timeout: a SUSPECT's confirm is due τ after its stamp
	slots       []slot
	shutdown    bool
	crashes     int // operator kills that went out
	recoveries  []Recovery
	det         []DetEvent
}

// slot is one node slot across its incarnations.
type slot struct {
	inc                 int
	helloed, ready, bye bool // of incarnation inc
	gone                bool // given up on: restart budget spent, or a respawn failed
	restarts            int
	hello               msgHello // inc's, until its exit
	clientAddr          string   // inc's Ready's, published until its exit
	// down is set from the instant the incarnation being replaced was
	// killed or, for a death nobody commanded, seen to have exited (downAt)
	// until its replacement is Ready; rec is that recovery's timeline so far.
	down   bool
	downAt simtime.Time
	rec    Recovery
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

func ms(d simtime.Duration) float64 { return float64(d/simtime.Microsecond) / 1e3 }

// DetEvent is one SUSPECT/RESTORE node Observer's detector reported, read
// off its batch before the merge: the chaos classifier's evidence.
type DetEvent struct {
	Name     string
	Observer int
	Peer     int
	At       simtime.Time
}

type inputKind uint8

const (
	// Up to inConfirm, from node's incarnation inc: ignored once the slot is past it.
	inHello       inputKind = iota // it said hello
	inReady                        // … ready
	inBye                          // … Bye
	inExit                         // it was reaped
	inSpawnFailed                  // it could not be started
	inConfirm                      // τ after a SUSPECT of it stamped at; watermark is node's stream watermark now
	inDetector                     // node's detector reported det
	inKill                         // the operator's Kill(node)
	inShutdown                     // the plane is shutting down
)

// input is one thing the plane observed, at now (live.Since(epoch)).
type input struct {
	kind          inputKind
	node, inc     int
	now           simtime.Time
	hello         msgHello
	ready         msgReady
	det           DetEvent
	at, watermark simtime.Time
}

type commandKind uint8

const (
	doSpawn    commandKind = iota // start node's incarnation inc
	doKill                        // SIGKILL node's incarnation inc
	doSend                        // send env to every incarnation that said Hello and not Bye
	doConfirm                     // at due, step inConfirm for node's incarnation inc suspected at at
	doMarkDead                    // FanIn.MarkDead(node)
	doReset                       // FanIn.Reset(node, at)
	doLog                         // log msg formatted with args
	doRefuse                      // fail the operator's call with msg formatted with args
)

// command is one thing the plane must do.
type command struct {
	kind      commandKind
	node, inc int
	at, due   simtime.Time
	env       envelope
	msg       string
	args      []any
}

func note(format string, args ...any) command {
	return command{kind: doLog, msg: format, args: args}
}

// step applies in and returns what the plane must do about it. Every slot
// starts as incarnation 0, spawned by Plane.Start.
func (pl *policy) step(in input) []command {
	s := &pl.slots[in.node]
	if in.kind <= inConfirm && in.inc != s.inc {
		return nil
	}
	switch in.kind {
	case inHello:
		s.helloed, s.hello = true, in.hello
		if s.down {
			s.rec.HelloMS = ms(in.now.Sub(s.downAt))
		}
		return []command{note("node %d incarnation %d hello (mesh %s)", in.node, in.inc, s.hello.NodeAddr), pl.announce()}
	case inReady:
		s.ready, s.clientAddr = true, in.ready.ClientAddr
		if s.down {
			r := s.rec
			r.WiredMS, r.TransferMS = ms(in.ready.Wired.Sub(s.downAt)), ms(in.ready.Applied.Sub(s.downAt))
			r.ReadyMS, r.FromPeer, r.Updates = ms(in.now.Sub(s.downAt)), in.ready.From, in.ready.Updates
			pl.recoveries = append(pl.recoveries, r)
			s.down = false
		}
		return []command{note("node %d ready", in.node)}
	case inBye:
		s.bye = true
	case inExit, inSpawnFailed:
		// After a Bye, or once the plane shuts down, an exit is the end of
		// the story. Anything else is a crash: freeze the stream and respawn
		// at once as the next incarnation; or, with the restart budget spent
		// or the respawn failed, give up on the slot and tell the peers.
		s.helloed, s.ready, s.hello, s.clientAddr = false, false, msgHello{}, ""
		if s.bye || pl.shutdown {
			return nil
		}
		if !s.down {
			s.down, s.downAt = true, in.now
		}
		s.rec = Recovery{Node: in.node, Incarnation: in.inc + 1, DetectMS: ms(in.now.Sub(s.downAt))}
		cmds := []command{note("node %d incarnation %d is down", in.node, in.inc), {kind: doMarkDead, node: in.node}}
		if in.kind == inSpawnFailed || s.restarts >= pl.maxRestarts {
			s.gone = true
			return append(cmds, note("node %d: leaving down after %d of %d restarts", in.node, s.restarts, pl.maxRestarts), pl.announce())
		}
		s.restarts++
		s.inc++
		// Floor first, then spawn: the replacement cannot have recorded
		// anything before this instant.
		return append(cmds, command{kind: doReset, node: in.node, at: in.now}, command{kind: doSpawn, node: in.node, inc: s.inc})
	case inDetector:
		pl.det = append(pl.det, in.det)
		if peer := in.det.Peer; in.det.Name == detector.ActSuspect && peer >= 0 && peer < len(pl.slots) {
			return []command{{kind: doConfirm, node: peer, inc: pl.slots[peer].inc, at: in.det.At, due: in.det.At.Add(pl.tau)}}
		}
	case inConfirm:
		// A node cut off from its peers keeps streaming and is left alone.
		if pl.shutdown || s.bye || s.gone || in.watermark >= in.at {
			return nil
		}
		if !s.down {
			s.down, s.downAt = true, in.now
		}
		return []command{note("node %d incarnation %d: suspected at %v and silent since; killed", in.node, in.inc, in.at), {kind: doKill, node: in.node, inc: s.inc}}
	case inKill:
		switch {
		case s.gone:
			return []command{{kind: doRefuse, msg: "fleet: node %d was given up on", args: []any{in.node}}}
		case pl.shutdown:
			return []command{{kind: doRefuse, msg: "fleet: node %d: the plane is shut down", args: []any{in.node}}}
		case s.bye:
			return []command{{kind: doRefuse, msg: "fleet: node %d said Bye", args: []any{in.node}}}
		}
		if !s.down {
			s.down, s.downAt = true, in.now
		}
		pl.crashes++
		return []command{{kind: doKill, node: in.node, inc: s.inc}}
	case inShutdown:
		if !pl.shutdown {
			pl.shutdown = true
			return []command{{kind: doSend, env: envelope{Shutdown: &msgShutdown{}}}}
		}
	}
	return nil
}

// announce sends each incarnation that said Hello and not Bye the mesh
// address map: a
// replacement's new address, or "" for a node that is down, which a
// replacement waiting for that node's link stops waiting for.
func (pl *policy) announce() command {
	addrs := make([]string, len(pl.slots))
	for i := range pl.slots {
		addrs[i] = pl.slots[i].hello.NodeAddr
	}
	return command{kind: doSend, env: envelope{Peers: &msgPeers{Addrs: addrs}}}
}

// all reports whether every slot satisfies ok.
func (pl *policy) all(ok func(s slot) bool) bool {
	for _, s := range pl.slots {
		if !ok(s) {
			return false
		}
	}
	return true
}
