package linearize

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"psclock/internal/simtime"
)

// refFrontier is the frontier builder as it was written with string keys:
// a map from string(key) to the state's place, duplicates merged to the
// smaller ℓ, and the states sorted by their key strings. The arena builder
// must agree with it state for state.
func refFrontier(states []olState) []olState {
	idx := make(map[string]int)
	var keys []string
	var out []olState
	for _, s := range states {
		k := binary.AppendUvarint(nil, uint64(len(s.early)))
		for _, id := range s.early {
			k = binary.AppendUvarint(k, uint64(id))
		}
		k = append(k, s.last...)
		if i, ok := idx[string(k)]; ok {
			if s.ell < out[i].ell {
				out[i].ell = s.ell
			}
			continue
		}
		idx[string(k)] = len(out)
		keys = append(keys, string(k))
		out = append(out, s)
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sorted := make([]olState, len(out))
	for i, j := range order {
		sorted[i] = out[j]
	}
	return sorted
}

// TestFrontierOrderCanonical emits random states through one builder,
// stage after stage, and requires the states, their merged ℓ and their
// order to equal refFrontier's. The ids reach past 127, so their varints
// take two and more bytes; the values share prefixes and include the empty
// one; the states are drawn from a small pool, so equal keys arrive with
// different ℓ; and a stage holds up to 60 keys, past the linear scan.
func TestFrontierOrderCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ids := []int{0, 1, 2, 5, 127, 128, 129, 300, 16383, 16384, 1 << 21}
	values := []string{"", "v", "v1", "v10", "v1\x00", "w"}
	var b frontierBuilder
	for stage := range 400 {
		pool := make([]olState, 1+r.Intn(60))
		for i := range pool {
			var early []int
			for _, id := range ids {
				if r.Intn(4) == 0 {
					early = append(early, id)
				}
			}
			pool[i] = olState{early: early, last: values[r.Intn(len(values))]}
		}
		emitted := make([]olState, 1+r.Intn(120))
		b.reset()
		for i := range emitted {
			s := pool[r.Intn(len(pool))]
			s.ell = simtime.Time(r.Intn(5))
			emitted[i] = s
			b.emit(s)
		}
		got, want := b.finish(nil), refFrontier(emitted)
		if len(got) != len(want) {
			t.Fatalf("stage %d: %d states, want %d", stage, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if !slices.Equal(g.early, w.early) || g.last != w.last || g.ell != w.ell {
				t.Fatalf("stage %d, state %d: %+v, want %+v", stage, i, g, w)
			}
		}
	}
}

// TestCarveKeepsSets pins the slab's cut: a set carved for n ids and then
// appended past n must move rather than write into the set carved after
// it, and sets from a slab that filled up keep their contents.
func TestCarveKeepsSets(t *testing.T) {
	o := NewOnline(Options{})
	a := append(o.carve(2), 1, 2)
	b := append(o.carve(2), 3, 4)
	b = append(b, 5)
	c := append(o.carve(2), 6, 7)
	a = append(a, 8)
	var sets [][]int
	for i := range slabInts {
		sets = append(sets, append(o.carve(3), i, i+1, i+2))
	}
	for _, x := range []struct{ got, want []int }{
		{a, []int{1, 2, 8}}, {b, []int{3, 4, 5}}, {c, []int{6, 7}},
	} {
		if !slices.Equal(x.got, x.want) {
			t.Errorf("set %v, want %v", x.got, x.want)
		}
	}
	for i, s := range sets {
		if !slices.Equal(s, []int{i, i + 1, i + 2}) {
			t.Fatalf("set %d is %v after later carves", i, s)
		}
	}
}
