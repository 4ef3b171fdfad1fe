package linearize

import (
	"runtime"
	"sync"

	"psclock/internal/simtime"
	"psclock/internal/spsc"
	"psclock/internal/ta"
)

// This file implements the sharded parallel form of the online checker.
// Register histories are independently linearizable — the paper's systems
// never order operations across registers — so a multi-register stream
// splits by key into per-key Online automata that can run concurrently.
// The Sharded checker routes each key (first-appearance order) round-robin
// to one of a pool of shard workers; the caller stays the single producer,
// hand-off is a lock-free SPSC ring per shard, and the low-watermark
// Flush/Advance broadcast keeps every shard's window GC and verdicts
// deterministic. Each key lives on exactly one shard, so its operations
// are processed in exactly the submission order the caller used — the
// per-key verdict, error text, sticky-failure behaviour, and States count
// are identical to feeding that key's operations to a sequential Online.
// The sequential checker therefore remains the differential oracle
// (cmd/pscfuzz -checkshards exercises exactly this equality).

// Checker is the keyed streaming-checker surface shared by the inline and
// sharded modes; register.Monitor drives it. Calls must come from a single
// goroutine at a time (the exec.Sink contract), with Add in the canonical
// per-key arrival order and Finish called exactly once when the stream
// ends — for the sharded mode Finish is also what terminates the workers,
// so abandoning a Sharded without Finish leaks goroutines.
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
	// checker, one merged verdict. The factory is called from shard
	// workers (or the caller's goroutine inline) at a key's first
	// operation; it must be safe for concurrent use and each returned
	// automaton is driven by exactly one goroutine.
	New func(key string) Automaton
	// Shards is the worker-pool size. Values below 2 select the inline
	// mode: per-key automata driven directly on the caller's goroutine,
	// with no queues or workers — the plumbing-free baseline.
	Shards int
	// Queue is the per-shard ring capacity, rounded up to a power of two;
	// 0 means 1024. A full ring parks the producer until the shard
	// drains, bounding memory instead of dropping or reordering.
	Queue int
}

// Sharded checks a multi-key stream of register operations by fanning out
// per-key Online automata across a pool of shard workers. See NewSharded.
type Sharded struct {
	opt ShardedOptions

	kidOf map[string]int // key → kid (first-appearance order)
	keys  []string       // kid → key

	inline  []Automaton // kid-indexed automata (inline mode)
	shards  []*shard    // worker pool (sharded mode)
	wg      sync.WaitGroup
	results []Result // kid-indexed, written by workers during Finish

	finished bool
	final    Result
	perKey   []Result
	failKid  int
}

var _ Checker = (*Sharded)(nil)

// shard is one worker: an SPSC ring fed by the producer and a goroutine
// draining it into kid-indexed Online automata.
type shard struct {
	ring *spsc.Ring[shardMsg]
}

// Message kinds on the shard rings.
const (
	msgBegin = iota
	msgAdd
	msgAdvance
	msgFinish
)

// shardMsg is one hand-off unit. kid is pre-interned by the producer so
// workers never touch the key table; key rides along only so a worker can
// hand it to the per-key automaton factory on first use.
type shardMsg struct {
	kind int
	kid  int
	key  string
	node ta.NodeID
	t    simtime.Time // Begin invocation or Advance watermark
	op   Op
}

// NewSharded returns a sharded checker; every per-key automaton uses
// opt.Check. With opt.Shards < 2 it runs inline (no goroutines); otherwise
// it starts opt.Shards workers that Finish terminates.
func NewSharded(opt ShardedOptions) *Sharded {
	if opt.Queue <= 0 {
		opt.Queue = 1024
	}
	s := &Sharded{
		opt:     opt,
		kidOf:   make(map[string]int),
		failKid: -1,
	}
	if opt.Shards >= 2 {
		// Workers share the scheduler with whatever produced the stream —
		// in live monitoring, the system under test itself. Yielding
		// between settled deadlines keeps any one drain from monopolizing
		// a core; the inline mode runs on the caller's goroutine, where
		// pacing is the caller's business.
		if s.opt.Check.Yield == nil {
			s.opt.Check.Yield = runtime.Gosched
		}
		s.shards = make([]*shard, opt.Shards)
		for i := range s.shards {
			sh := &shard{ring: spsc.New[shardMsg](opt.Queue)}
			s.shards[i] = sh
			s.wg.Add(1)
			go s.worker(sh)
		}
	}
	return s
}

// kid interns key, assigning ids in first-appearance order. Round-robin
// over that order (kid mod Shards) is the routing function: deterministic
// for a fixed stream, and balanced whenever keys carry comparable load.
func (s *Sharded) kid(key string) int {
	if k, ok := s.kidOf[key]; ok {
		return k
	}
	k := len(s.keys)
	s.kidOf[key] = k
	s.keys = append(s.keys, key)
	return k
}

// newAuto constructs the automaton for key: the factory when one is set,
// the default Online otherwise.
func (s *Sharded) newAuto(key string) Automaton {
	if s.opt.New != nil {
		return s.opt.New(key)
	}
	return NewOnline(s.opt.Check)
}

// at returns the automaton for kid in the inline mode, creating it lazily.
func (s *Sharded) at(kid int, key string) Automaton {
	for len(s.inline) <= kid {
		s.inline = append(s.inline, nil)
	}
	if s.inline[kid] == nil {
		s.inline[kid] = s.newAuto(key)
	}
	return s.inline[kid]
}

// Begin implements Checker.
func (s *Sharded) Begin(key string, node ta.NodeID, inv simtime.Time) {
	if s.finished {
		return
	}
	k := s.kid(key)
	if s.shards == nil {
		s.at(k, key).Begin(node, inv)
		return
	}
	s.shards[k%len(s.shards)].ring.Push(shardMsg{kind: msgBegin, kid: k, key: key, node: node, t: inv})
}

// Add implements Checker.
func (s *Sharded) Add(key string, op Op) {
	if s.finished {
		return
	}
	k := s.kid(key)
	if s.shards == nil {
		s.at(k, key).Add(op)
		return
	}
	s.shards[k%len(s.shards)].ring.Push(shardMsg{kind: msgAdd, kid: k, key: key, op: op})
}

// Advance implements Checker: the watermark is broadcast, so every shard
// garbage-collects its windows against the same bound.
func (s *Sharded) Advance(watermark simtime.Time) {
	if s.finished {
		return
	}
	if s.shards == nil {
		for _, o := range s.inline {
			if o != nil {
				o.Advance(watermark)
			}
		}
		return
	}
	for _, sh := range s.shards {
		sh.ring.Push(shardMsg{kind: msgAdvance, t: watermark})
	}
}

// Finish implements Checker: it settles every key (terminating the
// workers in the sharded mode) and merges the per-key Results in key
// arrival order. OK requires every key OK; Reason is the first failing
// key's reason, verbatim — for a single-key stream the merged Result is
// byte-identical to the sequential Online's. States sums all keys' search
// work; Pruned is the failing key's count when failed (so Verdict stays
// sound: another key's prunes cannot excuse this key's definite
// violation) and the sum when OK. Idempotent.
func (s *Sharded) Finish() Result {
	if s.finished {
		return s.final
	}
	s.finished = true
	s.results = make([]Result, len(s.keys))
	if s.shards == nil {
		for k, o := range s.inline {
			if o != nil {
				s.results[k] = o.Finish()
			}
		}
	} else {
		for _, sh := range s.shards {
			sh.ring.Push(shardMsg{kind: msgFinish})
		}
		s.wg.Wait()
	}
	s.perKey = s.results
	merged := Result{OK: true}
	for k := range s.results {
		r := &s.results[k]
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
		merged.Pruned = s.results[s.failKid].Pruned
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

// worker drains one shard's ring into kid-indexed automata until the
// Finish message, then publishes each key's Result (each kid is owned by
// exactly one shard, so the writes are disjoint) and exits.
func (s *Sharded) worker(sh *shard) {
	defer s.wg.Done()
	var checks []Automaton
	at := func(kid int, key string) Automaton {
		for len(checks) <= kid {
			checks = append(checks, nil)
		}
		if checks[kid] == nil {
			checks[kid] = s.newAuto(key)
		}
		return checks[kid]
	}
	for {
		m := sh.ring.PopWait()
		switch m.kind {
		case msgBegin:
			at(m.kid, m.key).Begin(m.node, m.t)
		case msgAdd:
			at(m.kid, m.key).Add(m.op)
		case msgAdvance:
			for _, o := range checks {
				if o != nil {
					o.Advance(m.t)
				}
			}
		case msgFinish:
			for kid, o := range checks {
				if o != nil {
					s.results[kid] = o.Finish()
				}
			}
			return
		}
	}
}
