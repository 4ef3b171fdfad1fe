// Package object generalizes the paper's §6 register result to other
// linearizable shared-memory objects, as the paper's closing remark of §6
// promises for its full version.
//
// The generalization covers objects whose operations split into
//
//   - blind updates — mutate the state, return no value (register WRITE,
//     counter ADD, set INSERT, max-register RAISE), and
//   - read-only queries — return a function of the state (register READ,
//     counter GET, set HAS, max-register GET).
//
// For this class, algorithm S generalizes verbatim: an update is broadcast
// as UPDATE(op, t) with t = now+d'2 and applied at every node at exactly
// time t+δ (simultaneous everywhere in the design model), acked after
// d'2−c; a query waits 2ε+c+δ and answers from the local copy. Updates
// scheduled for the same instant are applied in sender order (which, for
// the register, reproduces Figure 3's "largest index j wins" rule).
// Transformed to the clock model, the object is linearizable with query
// cost 2ε+δ+c and update cost d2+2ε−c — Theorem 6.5, objectwise.
//
// A Spec provides the sequential semantics once; the same Spec drives the
// replicas here and the linearizability checker (linearize.CheckObject).
package object

import (
	"fmt"
	"sort"

	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Environment action names of the generalized object problem.
const (
	ActUpdate = "UPDATE"
	ActQuery  = "QUERY"
	ActReturn = register.ActReturn
	ActAck    = register.ActAck
)

// Spec is a sequential object specification: canonical string states, the
// same encoding the checker memoizes on.
type Spec interface {
	linearize.Model
}

// opMsg is the broadcast update: the operation and its application time
// (sender time + d'2, applied at +δ), plus a per-sender sequence number
// keeping messages unique (§3).
type opMsg struct {
	Op  string
	T   simtime.Time
	Seq int
}

// String implements fmt.Stringer.
func (m opMsg) String() string { return fmt.Sprintf("op(%s,%v,%d)", m.Op, m.T, m.Seq) }

type pendingUpdate struct {
	at   simtime.Time
	proc ta.NodeID
	seq  int
	op   string
}

type (
	queryTimer struct{}
	uackTimer  struct{}
	applyTimer struct{ at simtime.Time }
)

// Alg is the generalized algorithm S for one node.
type Alg struct {
	spec  Spec
	p     register.Params
	extra simtime.Duration // 2ε for the S variant, 0 for the L variant

	state        string
	pending      []pendingUpdate
	pendingQuery string
	seq          int
}

var _ core.Algorithm = (*Alg)(nil)

// NewS returns the generalized algorithm S (with the 2ε query wait) for
// the given sequential spec.
func NewS(spec Spec, p register.Params) *Alg {
	return &Alg{spec: spec, p: p, extra: 2 * p.Epsilon, state: spec.Init()}
}

// NewL returns the generalized algorithm L (no extra wait; correct in the
// timed model only).
func NewL(spec Spec, p register.Params) *Alg {
	return &Alg{spec: spec, p: p, extra: 0, state: spec.Init()}
}

// Factory adapts a constructor to core.AlgorithmFactory.
func Factory(newAlg func(Spec, register.Params) *Alg, spec func() Spec, p register.Params) core.AlgorithmFactory {
	return func(ta.NodeID, int) core.Algorithm { return newAlg(spec(), p) }
}

// Start implements core.Algorithm.
func (a *Alg) Start(core.Context) {}

// OnInput implements core.Algorithm.
func (a *Alg) OnInput(ctx core.Context, name string, payload any) {
	switch name {
	case ActQuery:
		q, ok := payload.(string)
		if !ok {
			panic(fmt.Sprintf("object: QUERY payload %T is not a string", payload))
		}
		// Remember which query to answer; with the alternation condition
		// there is at most one outstanding.
		a.pendingQuery = q
		ctx.SetTimer(ctx.Time().Add(a.extra+a.p.C+a.p.Delta), queryTimer{})
	case ActUpdate:
		op, ok := payload.(string)
		if !ok {
			panic(fmt.Sprintf("object: UPDATE payload %T is not a string", payload))
		}
		a.seq++
		ctx.Broadcast(opMsg{Op: op, T: ctx.Time().Add(a.p.D2), Seq: a.seq})
		ctx.SetTimer(ctx.Time().Add(a.p.D2-a.p.C), uackTimer{})
	default:
		panic(fmt.Sprintf("object: unknown input %q", name))
	}
}

// OnMessage implements core.Algorithm: record the update for its
// application instant and schedule it.
func (a *Alg) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	m, ok := body.(opMsg)
	if !ok {
		panic(fmt.Sprintf("object: unexpected message %T", body))
	}
	at := m.T.Add(a.p.Delta)
	a.pending = append(a.pending, pendingUpdate{at: at, proc: from, seq: m.Seq, op: m.Op})
	ctx.SetTimer(at, applyTimer{at: at})
}

// OnTimer implements core.Algorithm.
func (a *Alg) OnTimer(ctx core.Context, key any) {
	switch key.(type) {
	case applyTimer:
		a.applyDue(ctx.Time())
	case queryTimer:
		a.applyDue(ctx.Time())
		_, result := a.spec.Apply(a.state, a.pendingQuery)
		ctx.Output(ActReturn, result)
	case uackTimer:
		ctx.Output(ActAck, nil)
	default:
		panic(fmt.Sprintf("object: unknown timer %T", key))
	}
}

// applyDue applies every pending update with application time ≤ now, in
// (time, proc, seq) order — the deterministic simultaneous-update rule.
func (a *Alg) applyDue(now simtime.Time) {
	if len(a.pending) == 0 {
		return
	}
	var due, rest []pendingUpdate
	for _, u := range a.pending {
		if !u.at.After(now) {
			due = append(due, u)
		} else {
			rest = append(rest, u)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		if due[i].proc != due[j].proc {
			return due[i].proc < due[j].proc
		}
		return due[i].seq < due[j].seq
	})
	for _, u := range due {
		a.state, _ = a.spec.Apply(a.state, u.op)
	}
	a.pending = rest
}

// History extracts the history of linearize.Call ops from a trace's
// visible actions, enforcing per-node alternation. Operations still open
// at the end are pending, appended in node order: arrival order is the
// checker's tie-break, so it must not depend on map iteration.
func History(tr ta.Trace) ([]linearize.Op, error) {
	type open struct {
		op  linearize.Op
		set bool
	}
	pend := make(map[ta.NodeID]open)
	var ops []linearize.Op
	for i, e := range tr {
		a := e.Action
		if a.Kind == ta.KindInternal {
			continue
		}
		switch a.Name {
		case ActQuery, ActUpdate:
			cur := pend[a.Node]
			if cur.set {
				return nil, fmt.Errorf("object: event %d: %s at %v while an operation is outstanding", i, a.Name, a.Node)
			}
			opStr, ok := a.Payload.(string)
			if !ok {
				return nil, fmt.Errorf("object: event %d: payload %T is not a string", i, a.Payload)
			}
			pend[a.Node] = open{op: linearize.Op{Node: a.Node, Kind: linearize.Call, Value: opStr, Inv: e.At, Res: simtime.Never}, set: true}
		case ActReturn, ActAck:
			cur := pend[a.Node]
			if !cur.set {
				return nil, fmt.Errorf("object: event %d: response %s at %v with no outstanding operation", i, a.Name, a.Node)
			}
			if a.Name == ActReturn {
				res, ok := a.Payload.(string)
				if !ok {
					return nil, fmt.Errorf("object: event %d: RETURN payload %T is not a string", i, a.Payload)
				}
				cur.op.Result = res
			}
			cur.op.Res = e.At
			ops = append(ops, cur.op)
			pend[a.Node] = open{}
		}
	}
	tail := len(ops)
	for _, cur := range pend {
		if cur.set {
			ops = append(ops, cur.op)
		}
	}
	sort.Slice(ops[tail:], func(i, j int) bool { return ops[tail+i].Node < ops[tail+j].Node })
	return ops, nil
}
