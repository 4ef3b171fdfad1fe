package linearize

import (
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements the keyed form of the online checker. Register
// histories are independently linearizable — the paper's systems never
// order operations across registers — so a multi-register stream splits by
// key into per-key automata. The Sharded checker keeps one automaton per
// key (first-appearance order) and drives each on the caller's goroutine:
// every key's operations reach its automaton in exactly the submission
// order the caller used, so the per-key verdict, error text, sticky-failure
// behaviour, and States count are identical to feeding that key's
// operations to a sequential Online.

// Checker is the keyed streaming-checker surface; register.Monitor drives
// it. Calls must come from a single goroutine at a time (the exec.Sink
// contract), with Add in the canonical per-key arrival order and Finish
// called once when the stream ends.
type Checker interface {
	// Begin declares an in-flight invocation on key, holding that key's
	// processing bound as in Online.Begin.
	Begin(key string, node ta.NodeID, inv simtime.Time)
	// Add submits a completed (or Finish-time pending) operation on key.
	Add(key string, op Op)
	// Advance supplies the global low-watermark: no operation on any key
	// will be invoked before watermark.
	Advance(watermark simtime.Time)
	// Finish settles every key and returns the merged verdict.
	Finish() Result
}

// ShardedOptions configures a Sharded checker.
type ShardedOptions struct {
	// Check is applied to every per-key Online automaton when New is nil.
	Check Options
	// New, when non-nil, constructs the automaton for each key, overriding
	// the default NewOnline(Check). This is the tiered-store hook: route
	// lin-tier keys to Online and seq-tier keys to SeqOnline from one
	// checker, one merged verdict. It is called on the caller's goroutine
	// at a key's first operation.
	New func(key string) Automaton
	// Shards is read by nothing: every key is checked inline. It stays
	// only because the benchmark harness sets it; ROADMAP 1A(j) drops it
	// together with those lines.
	Shards int
}

// Sharded checks a multi-key stream of register operations with one
// automaton per key. See NewSharded.
type Sharded struct {
	opt ShardedOptions

	kidOf map[string]int // key → kid (first-appearance order)
	keys  []string       // kid → key
	autos []Automaton    // kid → automaton

	finished bool
	final    Result
	perKey   []Result
	failKid  int
}

var _ Checker = (*Sharded)(nil)

// NewSharded returns a keyed checker; every per-key automaton is built by
// opt.New, or is NewOnline(opt.Check) when New is nil.
func NewSharded(opt ShardedOptions) *Sharded {
	return &Sharded{opt: opt, kidOf: make(map[string]int), failKid: -1}
}

// at returns key's automaton, interning the key and building the
// automaton at its first appearance.
func (s *Sharded) at(key string) Automaton {
	if k, ok := s.kidOf[key]; ok {
		return s.autos[k]
	}
	var a Automaton
	if s.opt.New != nil {
		a = s.opt.New(key)
	} else {
		a = NewOnline(s.opt.Check)
	}
	s.kidOf[key] = len(s.keys)
	s.keys = append(s.keys, key)
	s.autos = append(s.autos, a)
	return a
}

// Begin implements Checker.
func (s *Sharded) Begin(key string, node ta.NodeID, inv simtime.Time) {
	if !s.finished {
		s.at(key).Begin(node, inv)
	}
}

// Add implements Checker.
func (s *Sharded) Add(key string, op Op) {
	if !s.finished {
		s.at(key).Add(op)
	}
}

// Advance implements Checker: every key garbage-collects its window
// against the same bound.
func (s *Sharded) Advance(watermark simtime.Time) {
	if s.finished {
		return
	}
	for _, a := range s.autos {
		a.Advance(watermark)
	}
}

// Finish implements Checker: it settles every key and merges the per-key
// Results in key arrival order. OK requires every key OK; Reason is the
// first failing key's reason, verbatim — for a single-key stream the
// merged Result is byte-identical to the sequential Online's. States sums
// all keys' search work; Pruned is the failing key's count when failed (so
// Verdict stays sound: another key's prunes cannot excuse this key's
// definite violation) and the sum when OK. Idempotent.
func (s *Sharded) Finish() Result {
	if s.finished {
		return s.final
	}
	s.finished = true
	s.perKey = make([]Result, len(s.autos))
	merged := Result{OK: true}
	for k, a := range s.autos {
		r := a.Finish()
		s.perKey[k] = r
		merged.States += r.States
		if r.OK {
			merged.Pruned += r.Pruned
			continue
		}
		if merged.OK {
			merged.OK = false
			merged.Reason = r.Reason
			s.failKid = k
		}
	}
	if !merged.OK {
		merged.Pruned = s.perKey[s.failKid].Pruned
	}
	s.final = merged
	return s.final
}

// KeyResult returns key's individual Result; valid only after Finish.
func (s *Sharded) KeyResult(key string) (Result, bool) {
	if !s.finished {
		return Result{}, false
	}
	k, ok := s.kidOf[key]
	if !ok {
		return Result{}, false
	}
	return s.perKey[k], true
}

// FailedKey names the key whose Reason the merged Result carries; valid
// only after a failed Finish.
func (s *Sharded) FailedKey() (string, bool) {
	if !s.finished || s.failKid < 0 {
		return "", false
	}
	return s.keys[s.failKid], true
}
