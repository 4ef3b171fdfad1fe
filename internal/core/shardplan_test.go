package core

import (
	"fmt"
	"strings"
	"testing"

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

// TestShardPlanPerEdgeLookahead builds a heterogeneous-delay system and
// checks that sharding still activates and traces stay identical to the
// sequential build — the per-pair lookahead matrix must be consistent with
// the actual edge delays for this to hold.
func TestShardPlanPerEdgeLookahead(t *testing.T) {
	cfg := Config{
		N:      6,
		Bounds: simtime.NewInterval(1*ms, 4*ms),
		EdgeBounds: func(from, to int) simtime.Interval {
			// Slow links between far-apart nodes, fast links between
			// neighbors: the planner should give distant shard pairs the
			// larger d1.
			gap := from - to
			if gap < 0 {
				gap = -gap
			}
			lo := simtime.Duration(1+gap) * ms
			return simtime.NewInterval(lo, 3*lo)
		},
		Seed: 42,
	}
	run := func(shards int) string {
		c := cfg
		c.Shards = shards
		net := BuildTimed(c, relayFactory(2*ms))
		for i := 0; i < c.N; i++ {
			net.Invoke(ta.NodeID(i), "BCAST", i*10)
			net.Invoke(ta.NodeID(i), "GO", i)
		}
		if err := net.Sys.Run(simtime.Time(200 * ms)); err != nil {
			t.Fatalf("run(shards=%d): %v", shards, err)
		}
		if shards > 1 && !net.Sys.Sharded() {
			t.Fatalf("sharding fell back: %s", net.Sys.ShardFallbackReason())
		}
		var sb strings.Builder
		for _, e := range net.Sys.Trace() {
			fmt.Fprintf(&sb, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
		}
		return sb.String()
	}
	seq := run(-1)
	if seq == "" {
		t.Fatal("sequential run produced no events")
	}
	for _, s := range []int{2, 3} {
		if got := run(s); got != seq {
			t.Fatalf("%d-sharded trace differs from sequential", s)
		}
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
