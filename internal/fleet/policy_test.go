package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"psclock/internal/detector"
	"psclock/internal/simtime"
)

// The search runs the policy over every interleaving of its inputs, to a
// bounded depth, for a three-node fleet: each process's messages and exit,
// a spawn that fails, SUSPECTs, confirms with the suspect's stream silent
// since its SUSPECT or not, operator kills and shutdown. A confirm fires at
// its due instant, τ after its SUSPECT, with any inputs in between; time
// moves only then. Beside the policy the search keeps the ground truth of
// what every process did, and after every step it checks the policy's
// commands against that truth and against the rule of DESIGN.md §5a
// *Liveness*. Nodes are interchangeable, so states equal up to renaming
// them are explored once.
const (
	searchNodes = 3
	searchTau   = 2 // ticks
)

// proc is what the search knows of one slot's newest process.
type proc struct {
	spawns            int8 // spawn commands for the slot, Start's included
	inc               int8 // the newest spawned incarnation
	alive             bool // it runs: spawned, neither exited nor failed to start
	fresh             bool // … and has sent nothing, so its start may yet fail
	hello, ready, bye bool // what it has sent
}

// pending is an armed confirm, at most one per node.
type pending struct {
	armed   bool
	inc     int8
	at, due simtime.Time
}

// searchState is the policy's state, without its logs, beside the world's.
type searchState struct {
	slots    [searchNodes]slot
	shutdown bool
	procs    [searchNodes]proc
	confirms [searchNodes]pending
	now      simtime.Time
}

// searchKey is a state up to renaming nodes and shifting time: what the
// rest of a run can depend on. Each node packs into one word; the words
// are sorted.
type searchKey struct {
	nodes    [searchNodes]uint32
	shutdown bool
}

func (st *searchState) key() searchKey {
	k := searchKey{shutdown: st.shutdown}
	for n, s := range st.slots {
		p, c := st.procs[n], st.confirms[n]
		w := uint32(s.inc) | uint32(s.restarts)<<2 | uint32(p.spawns)<<4 | uint32(p.inc)<<6 | uint32(c.inc)<<8
		for i, b := range []bool{s.helloed, s.ready, s.bye, s.gone, s.clientAddr != "", p.alive, p.fresh, p.hello, p.ready, p.bye, c.armed} {
			if b {
				w |= 1 << (10 + i)
			}
		}
		k.nodes[n] = w
	}
	slices.Sort(k.nodes[:])
	return k
}

// hellos[node][inc] and readies[node][inc] are what that incarnation says
// at Hello and at Ready.
var hellos, readies = func() (h [searchNodes][3]msgHello, r [searchNodes][3]msgReady) {
	for n := range h {
		for inc := range h[n] {
			h[n][inc] = msgHello{NodeAddr: fmt.Sprintf("mesh%d.%d", n, inc)}
			r[n][inc] = msgReady{ClientAddr: fmt.Sprintf("client%d.%d", n, inc)}
		}
	}
	return
}()

// inputs lists every input the world can produce in st.
func (st *searchState) inputs() []input {
	var ins []input
	for n, p := range st.procs {
		in := input{node: n, inc: int(p.inc), now: st.now}
		if p.alive {
			if !p.hello {
				ins = append(ins, with(in, inHello))
			}
			if p.hello && !p.ready {
				ins = append(ins, with(in, inReady))
			}
			if !p.bye {
				ins = append(ins, with(in, inBye))
			}
			ins = append(ins, with(in, inExit))
			if p.fresh && p.inc > 0 { // Start's own spawns fail Start, not the policy
				ins = append(ins, with(in, inSpawnFailed))
			}
		}
		if c := st.confirms[n]; c.armed {
			for _, wm := range []simtime.Time{c.at - 1, c.at} { // silent since the SUSPECT, or streaming
				ins = append(ins, input{kind: inConfirm, node: n, inc: int(c.inc), now: max(st.now, c.due), at: c.at, watermark: wm})
			}
		} else {
			observer := (n + 1) % searchNodes
			ins = append(ins, input{kind: inDetector, node: observer, now: st.now, det: DetEvent{Name: detector.ActSuspect, Observer: observer, Peer: n, At: st.now}})
		}
		ins = append(ins, input{kind: inKill, node: n, now: st.now})
	}
	if !st.shutdown {
		ins = append(ins, input{kind: inShutdown, now: st.now})
	}
	return ins
}

func with(in input, k inputKind) input {
	in.kind = k
	switch k {
	case inHello:
		in.hello = hellos[in.node][in.inc]
	case inReady:
		in.ready = readies[in.node][in.inc]
	}
	return in
}

// apply steps a copy of st through in and checks the step; the error names
// the property it broke.
func (st *searchState) apply(in input, maxRestarts int) (next searchState, err error) {
	next = *st
	next.now = in.now
	pol := policy{maxRestarts: maxRestarts, tau: searchTau, slots: next.slots[:], shutdown: st.shutdown}
	cmds := pol.step(in)
	next.shutdown = pol.shutdown
	pre, w := st, &next.procs[in.node]
	switch in.kind {
	case inHello, inReady, inBye:
		w.fresh = false
		w.hello, w.ready, w.bye = w.hello || in.kind == inHello, w.ready || in.kind == inReady, w.bye || in.kind == inBye
	case inExit, inSpawnFailed:
		w.alive, w.fresh = false, false
	case inConfirm:
		next.confirms[in.node] = pending{}
	case inDetector:
		if d := pol.det; len(d) == 0 || d[len(d)-1] != in.det {
			return next, fmt.Errorf("evidence: %v is not the last of FleetStats.DetEvents", in.det)
		}
	}

	var killed, announced, confirmed bool
	for _, c := range cmds {
		switch c.kind {
		case doSpawn:
			p := &next.procs[c.node]
			switch {
			case pre.shutdown:
				return next, fmt.Errorf("one incarnation: spawned node %d incarnation %d after shutdown", c.node, c.inc)
			case pre.slots[c.node].gone:
				return next, fmt.Errorf("one incarnation: spawned node %d incarnation %d after giving up on it", c.node, c.inc)
			case p.alive:
				return next, fmt.Errorf("one incarnation: spawned node %d incarnation %d while incarnation %d runs", c.node, c.inc, p.inc)
			case c.inc != int(p.inc)+1:
				return next, fmt.Errorf("one incarnation: spawned node %d incarnation %d after incarnation %d", c.node, c.inc, p.inc)
			case int(p.spawns) >= 1+maxRestarts:
				return next, fmt.Errorf("one incarnation: spawn %d of node %d, over 1 + MaxRestarts = %d", p.spawns+1, c.node, 1+maxRestarts)
			}
			*p = proc{spawns: p.spawns + 1, inc: int8(c.inc), alive: true, fresh: true}
		case doKill:
			s := pre.slots[c.node]
			operator := in.kind == inKill && in.node == c.node
			confirm := in.kind == inConfirm && in.node == c.node && in.inc == c.inc &&
				s.inc == c.inc && !s.bye && !s.gone && in.watermark < in.at
			if pre.shutdown || c.inc != s.inc || !operator && !confirm {
				return next, fmt.Errorf("accuracy: killed node %d incarnation %d on %s", c.node, c.inc, describe(in))
			}
			killed = true
		case doConfirm:
			if in.kind != inDetector || in.det.Name != detector.ActSuspect || c.node != in.det.Peer ||
				c.inc != pre.slots[c.node].inc || c.at != in.det.At || c.due != in.det.At.Add(searchTau) || confirmed {
				return next, fmt.Errorf("completeness: armed %+v on %s", c, describe(in))
			}
			confirmed = true
			next.confirms[c.node] = pending{armed: true, inc: int8(c.inc), at: c.at, due: c.due}
		case doSend:
			announced = announced || c.env.Peers != nil
		}
	}

	s := pre.slots[in.node]
	switch {
	case in.kind == inConfirm && !pre.shutdown && s.inc == in.inc && !s.bye && !s.gone && in.watermark < in.at && !killed:
		return next, fmt.Errorf("completeness: no kill on %s", describe(in))
	case in.kind == inDetector && in.det.Name == detector.ActSuspect && !confirmed:
		return next, fmt.Errorf("completeness: no confirm armed on %s", describe(in))
	case next.slots[in.node].gone && !s.gone && !announced:
		return next, fmt.Errorf("given up: node %d left down on %s without telling its peers", in.node, describe(in))
	}
	for n, s := range next.slots {
		p := next.procs[n]
		if s.clientAddr == "" {
			continue
		}
		if !p.alive || !p.ready || int(p.inc) != s.inc || s.clientAddr != readies[n][s.inc].ClientAddr {
			return next, fmt.Errorf("publication: node %d publishes %q with its process %+v", n, s.clientAddr, p)
		}
	}
	return next, nil
}

func describe(in input) string {
	names := [...]string{"hello", "ready", "Bye", "exit", "spawn failed", "confirm", "detector", "Kill", "shutdown"}
	var b strings.Builder
	fmt.Fprintf(&b, "%s node %d", names[in.kind], in.node)
	switch in.kind {
	case inHello, inReady, inBye, inExit, inSpawnFailed:
		fmt.Fprintf(&b, " incarnation %d", in.inc)
	case inConfirm:
		fmt.Fprintf(&b, " incarnation %d suspected at %d, watermark %d", in.inc, in.at, in.watermark)
	case inDetector:
		fmt.Fprintf(&b, " %s of %d at %d", in.det.Name, in.det.Peer, in.det.At)
	}
	fmt.Fprintf(&b, " (t=%d)", in.now)
	return b.String()
}

// searchPolicy explores, depth first, every input sequence of up to depth
// steps from Start's state, and returns how many distinct states it
// reached, or the first property broken with the inputs that led there. A
// state met again is explored again only with more steps left than before.
func searchPolicy(maxRestarts, depth int) (int, error) {
	var start searchState
	for n := range start.procs {
		start.procs[n] = proc{spawns: 1, alive: true, fresh: true}
	}
	seen := map[searchKey]int{} // the most steps left a state was explored with
	var path []input
	var walk func(st searchState, left int) error
	walk = func(st searchState, left int) error {
		k := st.key()
		if l, ok := seen[k]; ok && l >= left {
			return nil
		}
		seen[k] = left
		if left == 0 {
			return nil
		}
		for _, in := range st.inputs() {
			path = append(path, in)
			next, err := st.apply(in, maxRestarts)
			if err == nil {
				err = walk(next, left-1)
			}
			if err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	if err := walk(start, depth); err != nil {
		steps := make([]string, len(path))
		for i, in := range path {
			steps[i] = describe(in)
		}
		return len(seen), fmt.Errorf("%v\n  after: %s", err, strings.Join(steps, "\n         "))
	}
	return len(seen), nil
}

// The plane's policy, checked over every interleaving of its inputs to
// depth 9 for N = 3, MaxRestarts 1 and 2, and τ of two ticks:
//   - accuracy: a kill goes out only for an operator Kill, or for a confirm
//     whose incarnation is current, has not said Bye, is not gone, and whose
//     watermark is still below the SUSPECT's stamp;
//   - completeness: every SUSPECT arms one confirm due τ later for the
//     incarnation of that moment, and every confirm as above kills;
//   - one incarnation per slot: no spawn of inc+1 before inc's exit, at most
//     1 + MaxRestarts spawns per slot, none after the slot is given up on or
//     the plane has shut down;
//   - publication: a client address is published only between that
//     incarnation's Ready and its exit, and it is the one that Ready carried;
//   - no kill after shutdown; a slot given up on is announced to its peers;
//     each SUSPECT lands in FleetStats.DetEvents.
func TestPlanePolicyExhaustive(t *testing.T) {
	for _, maxRestarts := range []int{1, 2} {
		states, err := searchPolicy(maxRestarts, 9)
		if err != nil {
			t.Fatalf("MaxRestarts %d: %v", maxRestarts, err)
		}
		t.Logf("MaxRestarts %d: %d states", maxRestarts, states)
	}
}
