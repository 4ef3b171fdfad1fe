package linearize

import (
	"fmt"
	"math/rand"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// replaySharded drives a Sharded checker over a single-key history with
// the monitor protocol: Begin at each invocation and Add at each response
// in seq order, with a safe Advance (the minimum invocation still ahead)
// every few operations.
func replaySharded(seq []Op, opt Options) *Sharded {
	s := NewSharded(ShardedOptions{Check: opt})
	suffixMinInv := make([]simtime.Time, len(seq)+1)
	suffixMinInv[len(seq)] = simtime.Never
	for i := len(seq) - 1; i >= 0; i-- {
		suffixMinInv[i] = suffixMinInv[i+1]
		if seq[i].Inv < suffixMinInv[i] {
			suffixMinInv[i] = seq[i].Inv
		}
	}
	for i, op := range seq {
		s.Begin("", op.Node, op.Inv)
		s.Add("", op)
		if i%3 == 2 {
			s.Advance(suffixMinInv[i+1])
		}
	}
	return s
}

// TestShardedSingleKeyParity is the keyed/batch differential on a single
// key: the merged Result is byte-identical to the batch checker's — OK,
// Reason, States, and Pruned.
func TestShardedSingleKeyParity(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 400; trial++ {
		seq := completionOrder(randAlternating(r))
		opt := randOnlineOptions(r)
		if opt.AssumeUnique && validateHistory(seq, opt.Initial) != nil {
			opt.AssumeUnique = false
		}
		want := Check(seq, opt)
		if got := replaySharded(seq, opt).Finish(); got != want {
			t.Fatalf("trial %d: keyed %+v != batch %+v\nopts: %+v\n%v", trial, got, want, opt, seq)
		}
	}
}

// multiKeyStream builds k independent single-key histories and an
// interleaved command schedule over them.
type multiKeyStream struct {
	keys []string
	seqs map[string][]Op
}

func randMultiKey(r *rand.Rand, k int) multiKeyStream {
	st := multiKeyStream{seqs: make(map[string][]Op)}
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("r%d", i)
		st.keys = append(st.keys, key)
		st.seqs[key] = completionOrder(randAlternating(r))
	}
	return st
}

// drive interleaves the per-key histories round-robin into the checker:
// each key's operations arrive in its own canonical order (the per-key
// order the monitor provides), with watermarks in between.
func (st multiKeyStream) drive(c Checker) Result {
	idx := make(map[string]int, len(st.keys))
	for done := false; !done; {
		done = true
		for _, key := range st.keys {
			i := idx[key]
			seq := st.seqs[key]
			if i >= len(seq) {
				continue
			}
			done = false
			c.Begin(key, seq[i].Node, seq[i].Inv)
			c.Add(key, seq[i])
			idx[key] = i + 1
		}
		c.Advance(0) // a stale watermark: reaches every key, settles nothing
	}
	return c.Finish()
}

// TestShardedMultiKeyOracle checks the keyed checker against the per-key
// oracle: every key's individual Result equals the batch checker over
// that key's history, the merged OK is their conjunction, and the merged
// Reason is the first failing key's reason in key-arrival order,
// verbatim.
func TestShardedMultiKeyOracle(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 150; trial++ {
		st := randMultiKey(r, 2+r.Intn(4))
		opt := Options{Initial: "v0"}
		s := NewSharded(ShardedOptions{Check: opt})
		merged := st.drive(s)
		wantOK := true
		wantReason := ""
		failKey := ""
		for _, key := range st.keys {
			want := Check(st.seqs[key], opt)
			got, ok := s.KeyResult(key)
			if !ok {
				t.Fatalf("trial %d: KeyResult(%q) missing", trial, key)
			}
			if got != want {
				t.Fatalf("trial %d key %q: keyed %+v != batch %+v\n%v", trial, key, got, want, st.seqs[key])
			}
			if wantOK && !want.OK {
				wantOK, wantReason, failKey = false, want.Reason, key
			}
		}
		if merged.OK != wantOK || merged.Reason != wantReason {
			t.Fatalf("trial %d: merged {%v %q} != want {%v %q}", trial, merged.OK, merged.Reason, wantOK, wantReason)
		}
		if gotKey, ok := s.FailedKey(); ok != !wantOK || (ok && gotKey != failKey) {
			t.Fatalf("trial %d: FailedKey()=(%q,%v), want (%q,%v)", trial, gotKey, ok, failKey, !wantOK)
		}
	}
}

// TestShardedMergedReasonOrder pins the merge tie-break with two failing
// keys: the merged Reason is the FIRST key's (in first-appearance order)
// and carries the sequential checker's exact error text.
func TestShardedMergedReasonOrder(t *testing.T) {
	badA := []Op{
		{Node: 0, Kind: Write, Value: "a1", Inv: 0, Res: 10},
		{Node: 1, Kind: Read, Value: "v0", Inv: 20, Res: 30},
		{Node: 0, Kind: Read, Value: "nope-a", Inv: 40, Res: 50},
	}
	badB := []Op{
		{Node: 2, Kind: Read, Value: "nope-b", Inv: 0, Res: 5},
	}
	opt := Options{Initial: "v0"}
	wantA := Check(badA, opt)
	if wantA.OK {
		t.Fatal("fixture badA unexpectedly linearizable")
	}
	s := NewSharded(ShardedOptions{Check: opt})
	for _, op := range badA { // key "a" appears first
		s.Begin("a", op.Node, op.Inv)
		s.Add("a", op)
	}
	for _, op := range badB {
		s.Begin("b", op.Node, op.Inv)
		s.Add("b", op)
	}
	merged := s.Finish()
	if merged.OK {
		t.Fatal("merged verdict OK over two failing keys")
	}
	if merged.Reason != wantA.Reason {
		t.Fatalf("merged reason %q, want first key's %q", merged.Reason, wantA.Reason)
	}
	if key, ok := s.FailedKey(); !ok || key != "a" {
		t.Fatalf("FailedKey()=(%q,%v), want (\"a\",true)", key, ok)
	}
}

// TestRecorderReplayParity pins capture/replay transparency: recording a
// stream and replaying it into a fresh checker yields the same Result as
// driving that checker directly.
func TestRecorderReplayParity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		st := randMultiKey(r, 2)
		opt := Options{Initial: "v0"}
		rec := &Recorder{}
		st.drive(rec)
		direct := st.drive(NewSharded(ShardedOptions{Check: opt}))
		replayed := Replay(rec.Cmds, NewSharded(ShardedOptions{Check: opt}))
		if direct != replayed {
			t.Fatalf("trial %d: direct %+v != replayed %+v", trial, direct, replayed)
		}
	}
}

// TestShardedAfterFinish pins that a finished checker ignores further
// traffic and Finish stays idempotent.
func TestShardedAfterFinish(t *testing.T) {
	s := NewSharded(ShardedOptions{Check: Options{Initial: "v0"}})
	s.Add("", Op{Node: 0, Kind: Write, Value: "w0", Inv: 0, Res: 1})
	first := s.Finish()
	s.Begin("", ta.NodeID(1), 5)
	s.Add("", Op{Node: 1, Kind: Read, Value: "bogus", Inv: 5, Res: 6})
	s.Advance(100)
	if again := s.Finish(); again != first {
		t.Fatalf("Finish not idempotent: %+v then %+v", first, again)
	}
}

// TestShardedHotSlotCollision drives two keys through the same node ids,
// so a node's hot slot holds one key when its next op names the other,
// and key "b" holds a stale read. Each key's Result must equal a
// sequential Online fed that key's Begins and Adds and every Advance: a
// slot hit that skipped its key compare would hand one key's ops to the
// other key's automaton.
func TestShardedHotSlotCollision(t *testing.T) {
	var cmds []Cmd
	at := simtime.Time(0)
	for round := 0; round < 4; round++ {
		for _, key := range []string{"a", "b"} {
			for node := ta.NodeID(0); node < 2; node++ {
				op := Op{Node: node, Kind: Read, Value: "v0", Inv: at, Res: at + 2}
				if node == 0 {
					op.Kind, op.Value = Write, fmt.Sprintf("%s%d", key, round)
				} else if key == "a" || round == 0 {
					op.Value = fmt.Sprintf("%s%d", key, round)
				}
				cmds = append(cmds,
					Cmd{Kind: CmdBegin, Key: key, Node: node, Time: op.Inv},
					Cmd{Kind: CmdAdd, Key: key, Op: op},
					Cmd{Kind: CmdAdvance, Time: op.Res})
				at += 3
			}
		}
	}
	opt := Options{Initial: "v0"}
	s := NewSharded(ShardedOptions{Check: opt})
	if Replay(cmds, s).OK {
		t.Fatal("merged verdict OK, but key b reads v0 after b1 completed")
	}
	for _, key := range []string{"a", "b"} {
		o := NewOnline(opt)
		for _, c := range cmds {
			switch {
			case c.Kind == CmdAdvance:
				o.Advance(c.Time)
			case c.Key != key:
			case c.Kind == CmdBegin:
				o.Begin(c.Node, c.Time)
			default:
				o.Add(c.Op)
			}
		}
		want := o.Finish()
		if got, _ := s.KeyResult(key); got != want {
			t.Fatalf("key %q: keyed %+v, sequential %+v", key, got, want)
		}
		if want.OK != (key == "a") {
			t.Fatalf("key %q: sequential verdict %+v, want only key b to fail", key, want)
		}
	}
}
