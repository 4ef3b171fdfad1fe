package live

import (
	"fmt"
	"strconv"

	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/trace"
)

// VerdictConfig is what a deployment states about the run to be judged.
type VerdictConfig struct {
	Model Model
	// Nodes and Registers size the port space as Runtime.Port lays it out:
	// register r on node i is port r·Nodes + i.
	Nodes, Registers int
	// Extra counts the instances each node hosts after its registers (the
	// fleet's heartbeat detector): not judged, but they widen each
	// incarnation's port namespace (Options.PortBase) to
	// Nodes·(Registers+Extra), which folding incarnations has to know.
	Extra int
	// Tiers maps each register to its tier (nil: all lin): lin is judged by
	// the online linearizability engine, seq by the Θ-bounded online
	// sequential-consistency engine.
	Tiers []register.Tier
}

// verdictRing is the post-mortem event tail a failing run is reported with.
const verdictRing = 256

// Verdict is the judging half of a deployment, one exec.Sink over the
// run's event stream: a register.Monitor pairing invocations with
// responses, a linearize.Sharded checker holding one automaton per
// register, and a ring of the last events for the post-mortem. The
// inverse of Runtime.Port lives here and only here.
type Verdict struct {
	mon   *register.Monitor
	check *linearize.Sharded
	ring  *trace.Ring
	keys  []string // register index → checker key

	// tail is the ring as it stood when the stream contract first broke.
	tail ta.Trace
}

var _ exec.Sink = (*Verdict)(nil)

// NewVerdict builds the stack for cfg.
func NewVerdict(cfg VerdictConfig) *Verdict {
	if cfg.Registers <= 0 {
		cfg.Registers = 1 // as live.New reads it
	}
	lin, seq := cfg.Model.LinOptions(), cfg.Model.SeqOptions()
	so := linearize.ShardedOptions{Check: lin}
	v := &Verdict{
		mon:  register.NewMonitor(),
		ring: trace.NewRing(verdictRing),
		keys: make([]string, cfg.Registers),
	}
	seqKeys := make(map[string]bool)
	for r := range v.keys {
		v.keys[r] = "r" + strconv.Itoa(r)
		if r < len(cfg.Tiers) && cfg.Tiers[r] == register.TierSeq {
			seqKeys[v.keys[r]] = true
		}
	}
	if len(seqKeys) > 0 {
		so.New = func(key string) linearize.Automaton {
			if seqKeys[key] {
				return linearize.NewSeqOnline(seq)
			}
			return linearize.NewOnline(lin)
		}
	}
	v.check = linearize.NewSharded(so)
	v.mon.AddChecker("live", v.check)
	// All of a register's ports form one history, whichever node or
	// incarnation served them: reducing mod the namespace width folds every
	// incarnation onto one checker key, so a replacement's operations extend
	// the history its predecessor's belonged to.
	n, space := cfg.Nodes, cfg.Nodes*(cfg.Registers+cfg.Extra)
	v.mon.SetKeyFunc(func(port ta.NodeID) string { return v.keys[int(port)%space/n] })
	return v
}

// Observe implements exec.Sink.
func (v *Verdict) Observe(e ta.Event) {
	v.mon.Observe(e)
	v.ring.Observe(e)
	if v.tail == nil && v.mon.Err() != nil {
		v.tail = v.ring.Tail() // never empty: it holds e
	}
}

// Flush implements exec.Sink.
func (v *Verdict) Flush(bound simtime.Time) { v.mon.Flush(bound) }

// Outcome is a finished run's verdict, in the form both binaries print
// and report.
type Outcome struct {
	// Violations is 1 when the stream contract (§6.1 alternation) or the
	// merged per-register check failed; Messages says which, naming the
	// failing register.
	Violations int
	Messages   []string
	// States is the checker's total search size.
	States int
	// PerReg is each register's own result, for the per-tier split; a
	// register no operation reached is vacuously OK with zero States.
	PerReg []linearize.Result
	// Tail is a failing run's event tail: the ring as it stood when the
	// stream contract broke, or — for a check failure, which the merged
	// verdict reports only once the stream has ended — its last events.
	Tail ta.Trace
}

// Finish ends the stream — operations still open are submitted as pending
// — and returns the outcome. Call it once, after the last event.
func (v *Verdict) Finish() Outcome {
	res := v.mon.Verdict("live")
	out := Outcome{States: res.States, PerReg: make([]linearize.Result, len(v.keys))}
	for r, key := range v.keys {
		if kr, ok := v.check.KeyResult(key); ok {
			out.PerReg[r] = kr
		} else {
			out.PerReg[r] = linearize.Result{OK: true}
		}
	}
	// A broken stream contract preempts the check's verdict, exactly as a
	// History error preempts the batch checker.
	if err := v.mon.Err(); err != nil {
		out.Violations++
		out.Messages = append(out.Messages, fmt.Sprintf("stream contract: %v", err))
		out.Tail = v.tail
	} else if !res.OK {
		out.Violations++
		key, _ := v.check.FailedKey()
		out.Messages = append(out.Messages, fmt.Sprintf("check: %s (register %s)", res.Reason, key))
		out.Tail = v.ring.Tail()
	}
	return out
}
