package linearize

import (
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Checker command capture and replay. A Recorder stands in for a real
// checker behind register.Monitor and records the exact Checker call
// stream a run produces; Replay then drives any Checker with that stream.
// The check_replay benchmark workload uses the pair to measure checker
// cost in isolation: capture once from a real executor run, then replay
// the identical command sequence through the sequential, sharded, and
// approximate checkers — same inputs, so the ratio is the checkers', not
// an executor artifact.

// CmdKind discriminates recorded Checker calls.
type CmdKind int

// The recorded call kinds; Finish is implied by the end of the stream.
const (
	CmdBegin CmdKind = iota
	CmdAdd
	CmdAdvance
)

// Cmd is one recorded Checker call.
type Cmd struct {
	Kind CmdKind
	Key  string
	Node ta.NodeID
	Time simtime.Time // Begin invocation or Advance watermark
	Op   Op           // Add payload
}

// Recorder is a Checker that appends every call to Cmds and always
// reports OK.
type Recorder struct {
	Cmds []Cmd
}

var _ Checker = (*Recorder)(nil)

// Begin implements Checker.
func (r *Recorder) Begin(key string, node ta.NodeID, inv simtime.Time) {
	r.Cmds = append(r.Cmds, Cmd{Kind: CmdBegin, Key: key, Node: node, Time: inv})
}

// Add implements Checker.
func (r *Recorder) Add(key string, op Op) {
	r.Cmds = append(r.Cmds, Cmd{Kind: CmdAdd, Key: key, Op: op})
}

// Advance implements Checker.
func (r *Recorder) Advance(watermark simtime.Time) {
	r.Cmds = append(r.Cmds, Cmd{Kind: CmdAdvance, Time: watermark})
}

// Finish implements Checker.
func (r *Recorder) Finish() Result { return Result{OK: true} }

// Replay drives c with the recorded stream and returns its Finish result.
func Replay(cmds []Cmd, c Checker) Result {
	for i := range cmds {
		m := &cmds[i]
		switch m.Kind {
		case CmdBegin:
			c.Begin(m.Key, m.Node, m.Time)
		case CmdAdd:
			c.Add(m.Key, m.Op)
		case CmdAdvance:
			c.Advance(m.Time)
		}
	}
	return c.Finish()
}
