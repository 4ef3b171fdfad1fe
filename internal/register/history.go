package register

import (
	"psclock/internal/linearize"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// History extracts the register operation history from a trace's visible
// environment actions, pairing each READ with its RETURN and each WRITE
// with its ACK per node. It enforces the alternation condition of §6.1
// (invoke/response alternate at each node); a trace in which the
// environment violates alternation is outside the problem's domain and is
// reported as an error. Operations still open at the end of the trace are
// returned as pending (Res = simtime.Never), in node order.
//
// It is a replay of the trace through a Monitor, with the event's trace
// position as its sequence number, so the two share one state machine and
// one set of error messages.
func History(tr ta.Trace) ([]linearize.Op, error) {
	rec := &linearize.Recorder{}
	m := NewMonitor()
	m.AddChecker("history", rec)
	for i, e := range tr {
		e.Seq = i
		m.Observe(e) // a no-op after the first violation
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	m.Finish()
	var ops []linearize.Op
	for _, c := range rec.Cmds {
		if c.Kind == linearize.CmdAdd {
			ops = append(ops, c.Op)
		}
	}
	return ops, nil
}

// Latencies returns the observed response times of all completed
// operations, split by kind.
func Latencies(ops []linearize.Op) (reads, writes []simtime.Duration) {
	for _, o := range ops {
		if o.Pending() {
			continue
		}
		d := o.Res.Sub(o.Inv)
		if o.Kind == linearize.Read {
			reads = append(reads, d)
		} else {
			writes = append(writes, d)
		}
	}
	return reads, writes
}
