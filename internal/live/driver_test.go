package live

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// simDriver runs every node of a runtime on the test's goroutine, in
// simulated real time, in place of Start's goroutines, sockets and timers.
// It is the MMT model of §5 around the unchanged node program: each node
// is built by newNode and steps as its loop does — inbox, then due timers,
// then re-arm — but its effects land here. One simtime.Queue holds every
// pending event:
//   - a frame arrives after a seeded delay in the runtime's [d1, d2];
//   - a node's wake is served late by a seeded amount in [0, ℓ) of its
//     own clock, with ℓ = Model.Ell ≤ Model.Slack, so the verdict's
//     ε + Slack window covers every drawn lateness;
//   - a client comes due (workload's automata, through Due, Fire and
//     Deliver).
//
// Clocks are the runtime's clock.Model factories read at the simulated
// instant, and recorded actions reach the runtime's sinks through one
// exec.StampMerge, stamped with that instant. Tests reach the nodes
// through the runtime's own entry points (invoke, Recover, SetClockStep,
// enqueueFrame), which fill inboxes that the driver drains before it next
// advances time. The same seed gives the same trace.
type simDriver struct {
	t     testing.TB
	rt    *Runtime
	ell   simtime.Duration
	rng   *rand.Rand
	q     simtime.Queue
	now   simtime.Time
	merge exec.StampMerge
	hash  hash.Hash64

	woken   []bool // node i's wake fired: its loop comes round
	arms    []int  // node i's arming count; a wake carrying another is stale
	inc     []int  // node i's incarnation; a frame sent to an older one is lost
	clients []*simClient
}

type (
	// arrival is a frame reaching its destination's incarnation inc.
	arrival struct {
		f   Frame
		inc int
	}
	// wakeUp is node's wake source firing for its arm-th arming.
	wakeUp struct{ node, arm int }
)

// simClient is a workload automaton invoking at one node's register 0; its
// responses come back on resp, as a server connection's would.
type simClient struct {
	ta.Automaton
	node   ta.NodeID
	resp   chan wireResp
	queued simtime.Time // the instant it is queued at, Never when not
}

// newSimDriver builds rt's nodes on a driver that draws its delays and
// lateness from seed and the lateness bound from m, and starts them at
// simulated Zero. rt comes from New (or Deploy), unstarted, with finite
// Bounds.
func newSimDriver(t testing.TB, rt *Runtime, m Model, seed int64) *simDriver {
	t.Helper()
	if m.Ell <= 0 || m.Ell > m.Slack || rt.opts.Bounds.Hi == simtime.Forever {
		t.Fatalf("driver needs 0 < ℓ ≤ slack and a finite d2: ℓ=%v slack=%v bounds=%v", m.Ell, m.Slack, rt.opts.Bounds)
	}
	n := rt.opts.N
	d := &simDriver{
		t: t, rt: rt, ell: m.Ell, rng: rand.New(rand.NewSource(seed)), hash: fnv.New64a(),
		woken: make([]bool, n), arms: make([]int, n), inc: make([]int, n),
	}
	d.merge.Sinks = append(rt.sinks[:len(rt.sinks):len(rt.sinks)], d)
	rt.nodes = make([]*node, n)
	for i := range rt.nodes {
		rt.nodes[i] = d.newNode(i)
	}
	for i := range rt.nodes {
		rt.nodes[i].start()
		d.woken[i] = true
	}
	d.drain()
	return d
}

// newNode builds node i with the driver as its effects.
func (d *simDriver) newNode(i int) *node {
	return newNode(d.rt, i, effects{
		send:   d.send,
		record: func(a ta.Action, src string) { d.merge.Add(i, a, d.now, src) },
		now:    func() simtime.Time { return d.now },
	})
}

// send puts f in flight for a seeded delay in [d1, d2].
func (d *simDriver) send(f Frame) error {
	b := d.rt.opts.Bounds
	delay := b.Lo + simtime.Duration(d.rng.Int63n(int64(b.Width())+1))
	d.q.Push(d.now.Add(delay), arrival{f, d.inc[f.To]})
	return nil
}

// addClient attaches c at node and queues its first invocation.
func (d *simDriver) addClient(c ta.Automaton, node ta.NodeID) {
	sc := &simClient{Automaton: c, node: node, resp: make(chan wireResp, 1), queued: simtime.Never}
	c.Init()
	d.clients = append(d.clients, sc)
	d.schedule(sc)
}

func (d *simDriver) schedule(c *simClient) {
	if at, ok := c.Due(d.now); ok && at != c.queued {
		c.queued = at
		d.q.Push(max(at, d.now), c)
	}
}

// run serves events in time order until done (nil: never) reports true or
// the next event lies past until, where time then stands; it returns done's
// last answer.
func (d *simDriver) run(until simtime.Time, done func() bool) bool {
	d.drain()
	for done == nil || !done() {
		at, ok := d.q.Next()
		if !ok || at > until {
			d.now = max(d.now, until)
			return false
		}
		e := d.q.Pop()
		d.now = max(d.now, e.At)
		switch k := e.Key.(type) {
		case arrival:
			if k.inc == d.inc[k.f.To] {
				d.rt.enqueueFrame(k.f)
			}
		case wakeUp:
			d.woken[k.node] = k.arm == d.arms[k.node]
		case *simClient:
			if e.At == k.queued {
				k.queued = simtime.Never
				for _, a := range k.Fire(d.now) {
					if err := d.rt.invoke(k.node, invocation{name: a.Name, payload: a.Payload, to: k.resp}); err != nil {
						d.t.Fatal(err)
					}
				}
				d.schedule(k)
			}
		}
		d.drain()
	}
	return true
}

// drain brings round, once, the loop of every node with an inbox entry or
// a fired wake — inbox, due timers, re-arm, as node.loop does — then hands
// each client its responses and merges what was recorded.
func (d *simDriver) drain() {
	for i, n := range d.rt.nodes {
		if len(n.inbox) == 0 && !d.woken[i] {
			continue
		}
		if d.woken[i] {
			d.woken[i], n.armed = false, false
		}
		for len(n.inbox) > 0 {
			n.handle(<-n.inbox)
		}
		n.fireDue()
		if at, ok := n.timers.Next(); ok && (!n.armed || at != n.armedAt) {
			d.arms[i]++
			n.armed, n.armedAt = true, at
			late := simtime.Duration(d.rng.Int63n(int64(d.ell)))
			d.q.Push(max(d.now, n.clk.wakeAt(at.Add(late))), wakeUp{i, d.arms[i]})
		}
	}
	for _, c := range d.clients {
		for len(c.resp) > 0 {
			r := <-c.resp
			c.Deliver(d.now, ta.Action{Name: r.Op, Node: c.node, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: r.Val})
			d.schedule(c)
		}
	}
	d.merge.Emit()
	d.merge.Flush(d.now)
}

// replace crashes the nodes ids and starts each again as a replacement
// that has lost its state; frames in flight to the old incarnation are
// lost. Every link to and from a new incarnation comes up with a linkUp,
// as a re-dialled mesh connection's first frame does.
func (d *simDriver) replace(ids ...int) {
	for _, i := range ids {
		d.inc[i]++
		n := d.newNode(i)
		n.amnesic = true
		d.rt.nodes[i] = n
		n.start()
		d.woken[i] = true
	}
	for _, i := range ids {
		for j := range d.rt.nodes {
			if j != i {
				d.send(Frame{From: ta.NodeID(j), To: ta.NodeID(i), Chan: ctlChan, SentReal: d.now, Body: linkUp{}})
				d.send(Frame{From: ta.NodeID(i), To: ta.NodeID(j), Chan: ctlChan, SentReal: d.now, Body: linkUp{}})
			}
		}
	}
	d.drain()
}

// finish ends the stream and returns what the runtime measured.
func (d *simDriver) finish() Measured {
	d.merge.Finish()
	return d.rt.measure()
}

// Observe implements exec.Sink: the driver hashes the merged stream.
func (d *simDriver) Observe(e ta.Event) {
	fmt.Fprintf(d.hash, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
}

// Flush implements exec.Sink.
func (d *simDriver) Flush(simtime.Time) {}
