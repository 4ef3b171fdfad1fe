package core

import (
	"fmt"
	"strings"
	"testing"

	"psclock/internal/channel"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func TestBalancedBlocksUniformMatchesClassic(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{8, 4}, {5, 2}, {9, 3}, {4, 4}, {7, 5}} {
		w := make([]int, tc.n)
		for i := range w {
			w[i] = 2
		}
		got := balancedBlocks(w, tc.s)
		for i, b := range got {
			if want := i * tc.s / tc.n; b != want {
				t.Errorf("n=%d s=%d: node %d in block %d, classic partition says %d", tc.n, tc.s, i, b, want)
			}
		}
	}
}

func TestBalancedBlocksContiguousNonEmpty(t *testing.T) {
	w := []int{10, 1, 1, 1, 1, 1, 1, 10}
	const s = 4
	got := balancedBlocks(w, s)
	seen := make([]int, s)
	prev := 0
	for i, b := range got {
		if b < prev || b > prev+1 || b >= s {
			t.Fatalf("non-contiguous assignment at node %d: %v", i, got)
		}
		prev = b
		seen[b]++
	}
	for b, c := range seen {
		if c == 0 {
			t.Fatalf("block %d empty: %v", b, got)
		}
	}
	// The heavy endpoints should not share a block with the whole middle:
	// node 0 alone already holds its proportional share.
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("heavy node 0 should occupy block 0 alone: %v", got)
	}
}

// echo broadcasts each input and answers every message at once with the
// payload minus one, back to its sender, until the payload reaches zero.
type echo struct{}

func (echo) Start(Context) {}

func (echo) OnInput(ctx Context, _ string, payload any) { ctx.Broadcast(payload) }

func (echo) OnMessage(ctx Context, from ta.NodeID, body any) {
	ctx.Output("GOT", body)
	if k := body.(int); k > 0 {
		ctx.Send(from, k-1)
	}
}

func (echo) OnTimer(Context, any) {}

// TestShardLookaheadIsBoundsLo pins the executor's round lookahead to the
// links' d1. Every message takes exactly d1 and every arrival is answered
// at once across shards, so each reply is due exactly one d1 after the
// round began: a lookahead any larger than Bounds.Lo lands it inside the
// executed round and fails the run with a lookahead violation. At d1 the
// sharded traces equal the sequential one; a d1 of 0 falls back.
func TestShardLookaheadIsBoundsLo(t *testing.T) {
	run := func(lo simtime.Duration, shards int) *Net {
		cfg := Config{N: 6, Bounds: simtime.NewInterval(lo, 4*ms), Seed: 42, NewDelay: channel.MinDelay, Shards: shards}
		net := BuildTimed(cfg, func(ta.NodeID, int) Algorithm { return echo{} })
		for i := 0; i < cfg.N; i++ {
			net.Invoke(ta.NodeID(i), "PING", 3)
		}
		if err := net.Sys.Run(simtime.Time(50 * ms)); err != nil {
			t.Fatalf("d1=%v shards=%d: %v", lo, shards, err)
		}
		return net
	}
	render := func(net *Net) string {
		var sb strings.Builder
		for _, e := range net.Sys.Trace() {
			fmt.Fprintf(&sb, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
		}
		return sb.String()
	}
	seq := render(run(1*ms, -1))
	if !strings.Contains(seq, "GOT@n0(0)") {
		t.Fatal("sequential run never completed an echo chain")
	}
	for _, s := range []int{2, 3} {
		net := run(1*ms, s)
		if !net.Sys.Sharded() {
			t.Fatalf("%d shards fell back: %s", s, net.Sys.ShardFallbackReason())
		}
		if render(net) != seq {
			t.Errorf("%d-sharded trace differs from sequential", s)
		}
	}
	if net := run(0, 2); net.Sys.Sharded() || net.Sys.ShardFallbackReason() == "" {
		t.Errorf("d1 = 0: Sharded() = %v, fallback reason %q; want a sequential fallback with a reason",
			net.Sys.Sharded(), net.Sys.ShardFallbackReason())
	}
}

// TestConfigShardsIsTheOnlySelector pins "no ambient default": in every
// model, Shards 0 and −1 both build the sequential executor and 2 builds
// the sharded one. Sharded() is only meaningful once the system has run.
func TestConfigShardsIsTheOnlySelector(t *testing.T) {
	for _, b := range []struct {
		model string
		build func(Config, AlgorithmFactory) *Net
	}{{"timed", BuildTimed}, {"clock", BuildClocked}, {"mmt", BuildMMT}} {
		for _, tc := range []struct {
			shards  int
			sharded bool
		}{{0, false}, {-1, false}, {2, true}} {
			c := cfg2()
			c.Ell = 100 * us
			c.Shards = tc.shards
			net := b.build(c, relayFactory(2*ms))
			net.Invoke(0, "GO", 0)
			if err := net.Sys.Run(simtime.Time(10 * ms)); err != nil {
				t.Fatalf("%s shards=%d: %v", b.model, tc.shards, err)
			}
			if got := net.Sys.Sharded(); got != tc.sharded {
				t.Errorf("%s shards=%d: Sharded() = %v, want %v (%s)",
					b.model, tc.shards, got, tc.sharded, net.Sys.ShardFallbackReason())
			}
		}
	}
}
