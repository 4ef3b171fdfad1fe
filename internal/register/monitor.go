package register

import (
	"fmt"
	"sort"

	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// Monitor is the streaming counterpart of History + Check: an exec.Sink
// that pairs invocations with responses as events arrive and feeds each
// completed operation to a set of online linearizability checkers, so a
// run can be verified without retaining its trace. It enforces the same
// alternation condition History does (with identical error messages,
// indexed by event sequence number), aggregates per-kind latencies into
// O(1)-memory streams, and forwards the executor's low-watermark to the
// checkers so their windows stay bounded.
//
// Usage: construct, register checkers with AddCheck, attach with
// System.AddSink before the run, and after the run call Err, then
// Verdict for each registered check. Verdicts are byte-identical to
// running the batch entry points over the retained trace's History,
// because the monitor submits operations in exactly the order History
// lists them: response order for completed operations, node order for
// the operations still open when the run ends.
type Monitor struct {
	checks []monCheck
	keyOf  func(ta.NodeID) string
	open   map[ta.NodeID]monOpen
	err    error

	// Reads and Writes aggregate completed-operation latencies by kind.
	Reads, Writes stats.Stream

	finished bool
	results  map[string]linearize.Result
}

type monCheck struct {
	name string
	c    linearize.Checker
}

type monOpen struct {
	op  linearize.Op
	set bool
}

var _ exec.Sink = (*Monitor)(nil)

// NewMonitor returns an empty monitor. Register checkers with AddCheck
// before attaching it to an executor.
func NewMonitor() *Monitor {
	return &Monitor{
		open:    make(map[ta.NodeID]monOpen),
		results: make(map[string]linearize.Result),
	}
}

// AddCheck registers a named online checker over the monitored operation
// stream. Must be called before any event is observed, so the checker
// sees the stream from its start. The checker runs inline on the
// observing goroutine, one automaton per key.
func (m *Monitor) AddCheck(name string, opt linearize.Options) {
	m.AddChecker(name, linearize.NewSharded(linearize.ShardedOptions{Check: opt}))
}

// AddChecker registers an arbitrary keyed checker (e.g. a Recorder
// capturing the command stream). Must be called before any event is
// observed.
func (m *Monitor) AddChecker(name string, c linearize.Checker) {
	m.checks = append(m.checks, monCheck{name: name, c: c})
}

// SetKeyFunc sets the register-routing key function: the key under which
// a node's operations are checked. All nodes sharing a key form one
// register history, checked for linearizability independently of every
// other key — the multi-register fan-out. Unset (or nil) means a single
// anonymous register, the single-register monitor semantics.
func (m *Monitor) SetKeyFunc(fn func(ta.NodeID) string) { m.keyOf = fn }

// key resolves a node's routing key.
func (m *Monitor) key(n ta.NodeID) string {
	if m.keyOf == nil {
		return ""
	}
	return m.keyOf(n)
}

// Observe implements exec.Sink, mirroring History's alternation state
// machine one event at a time. After a contract violation the monitor
// stops consuming: Err reports the first violation, and verdicts are
// meaningless, exactly as History returning an error preempts checking.
func (m *Monitor) Observe(e ta.Event) {
	if m.err != nil {
		return
	}
	a := e.Action
	switch a.Name {
	case ActRead, ActWrite:
		if a.Kind == ta.KindInternal {
			return
		}
		cur := m.open[a.Node]
		if cur.set {
			m.err = fmt.Errorf("register: event %d: %v invoked at %v while %v is outstanding (alternation condition)",
				e.Seq, a.Name, a.Node, cur.op.Kind)
			return
		}
		op := linearize.Op{Node: a.Node, Inv: e.At, Res: simtime.Never}
		if a.Name == ActRead {
			op.Kind = linearize.Read
		} else {
			op.Kind = linearize.Write
			v, ok := a.Payload.(Value)
			if !ok {
				m.err = fmt.Errorf("register: event %d: WRITE payload %T is not a Value", e.Seq, a.Payload)
				return
			}
			op.Value = v.String()
		}
		m.open[a.Node] = monOpen{op: op, set: true}
		key := m.key(a.Node)
		for _, c := range m.checks {
			c.c.Begin(key, a.Node, e.At)
		}
	case ActReturn, ActAck:
		if a.Kind == ta.KindInternal {
			return
		}
		cur := m.open[a.Node]
		if !cur.set {
			m.err = fmt.Errorf("register: event %d: response %v at %v with no outstanding operation", e.Seq, a.Name, a.Node)
			return
		}
		if a.Name == ActReturn {
			if cur.op.Kind != linearize.Read {
				m.err = fmt.Errorf("register: event %d: RETURN at %v answers a write", e.Seq, a.Node)
				return
			}
			v, ok := a.Payload.(Value)
			if !ok {
				m.err = fmt.Errorf("register: event %d: RETURN payload %T is not a Value", e.Seq, a.Payload)
				return
			}
			cur.op.Value = v.String()
		} else if cur.op.Kind != linearize.Write {
			m.err = fmt.Errorf("register: event %d: ACK at %v answers a read", e.Seq, a.Node)
			return
		}
		cur.op.Res = e.At
		d := cur.op.Res.Sub(cur.op.Inv)
		if cur.op.Kind == linearize.Read {
			m.Reads.Add(d)
		} else {
			m.Writes.Add(d)
		}
		key := m.key(a.Node)
		for _, c := range m.checks {
			c.c.Add(key, cur.op)
		}
		m.open[a.Node] = monOpen{}
	}
}

// Flush implements exec.Sink: the executor's low-watermark becomes the
// checkers' Advance bound, letting them settle and discard every
// operation whose widened window lies entirely before it.
func (m *Monitor) Flush(bound simtime.Time) {
	if m.err != nil {
		return
	}
	for _, c := range m.checks {
		c.c.Advance(bound)
	}
}

// Err returns the first contract violation observed, or nil. Like a
// History error, a non-nil Err preempts the verdicts.
func (m *Monitor) Err() error { return m.err }

// Finish submits the operations still open at the end of the run as
// pending (in node order, matching no particular trace order — pending
// operations carry Res = Never, so their relative submission order is
// immaterial to the verdict) and finalizes every checker. Idempotent;
// Verdict calls it implicitly.
func (m *Monitor) Finish() {
	if m.finished {
		return
	}
	m.finished = true
	var nodes []ta.NodeID
	for n, cur := range m.open {
		if cur.set {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		op := m.open[n].op
		key := m.key(n)
		for _, c := range m.checks {
			c.c.Add(key, op)
		}
		m.open[n] = monOpen{}
	}
	for _, c := range m.checks {
		m.results[c.name] = c.c.Finish()
	}
}

// Verdict returns the named checker's final result, finalizing the
// monitor on first use. Panics on an unregistered name.
func (m *Monitor) Verdict(name string) linearize.Result {
	m.Finish()
	r, ok := m.results[name]
	if !ok {
		panic(fmt.Sprintf("register: Verdict(%q): no such check", name))
	}
	return r
}
