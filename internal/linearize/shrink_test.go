package linearize

import (
	"fmt"
	"math/rand"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func TestShrinkNewOldInversion(t *testing.T) {
	// Pad a classic violation with unrelated linearizable traffic; Shrink
	// must isolate the core.
	ops := []Op{
		op(0, Write, "x1", 0, 5),
		op(1, Read, "x1", 10, 15),
		op(0, Write, "a", 100, 200), // the long write...
		op(1, Read, "a", 110, 120),  // ...seen new...
		op(1, Read, "x1", 130, 140), // ...then old: violation
		op(2, Write, "y", 300, 310),
		op(2, Read, "y", 320, 330),
	}
	if CheckLinearizable(ops, "v0").OK {
		t.Fatal("test history unexpectedly linearizable")
	}
	small := Shrink(ops, nil, Options{Initial: "v0"})
	if len(small) >= len(ops) {
		t.Fatalf("no shrinkage: %d ops", len(small))
	}
	if len(small) > 4 {
		t.Errorf("shrunk to %d ops, expected ≤ 4:\n%v", len(small), small)
	}
	// Still a violation, and locally minimal.
	if CheckLinearizable(small, "v0").OK {
		t.Fatal("shrunk history is linearizable")
	}
	for i := range small {
		cand := append(append([]Op{}, small[:i]...), small[i+1:]...)
		if validateHistory(cand, "v0") != nil {
			continue
		}
		if !CheckLinearizable(cand, "v0").OK {
			t.Errorf("not minimal: removing op %d still violates", i)
		}
	}
}

func TestShrinkLeavesGoodHistoriesAlone(t *testing.T) {
	ops := []Op{
		op(0, Write, "a", 0, 10),
		op(1, Read, "a", 20, 30),
	}
	small := Shrink(ops, nil, Options{Initial: "v0"})
	if len(small) != len(ops) {
		t.Errorf("linearizable history shrunk to %d", len(small))
	}
}

func TestShrinkCounter(t *testing.T) {
	ops := []Op{
		call(0, "add:2", "", 0, 10),
		call(1, "get", "2", 20, 30),
		call(0, "add:3", "", 40, 50),
		call(1, "get", "2", 60, 70), // stale: violation
		call(2, "get", "5", 80, 90),
	}
	if CheckObject(ops, cntModel{}, Options{Initial: "0"}).OK {
		t.Fatal("unexpectedly linearizable")
	}
	small := Shrink(ops, cntModel{}, Options{Initial: "0"})
	if len(small) >= len(ops) {
		t.Fatalf("no shrinkage: %d", len(small))
	}
	if CheckObject(small, cntModel{}, Options{Initial: "0"}).OK {
		t.Fatal("shrunk history linearizable")
	}
}

// Property: shrinking always yields a violating sub-history whose removal
// candidates all pass.
func TestShrinkProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	found := 0
	for trial := 0; trial < 300 && found < 25; trial++ {
		n := 3 + r.Intn(6)
		values := []string{"v0"}
		ops := make([]Op, 0, n)
		for i := 0; i < n; i++ {
			inv := simtime.Time(r.Intn(50))
			res := inv.Add(simtime.Duration(1 + r.Intn(25)))
			if r.Intn(2) == 0 {
				v := fmt.Sprintf("w%d", i)
				values = append(values, v)
				ops = append(ops, Op{Node: ta.NodeID(i % 3), Kind: Write, Value: v, Inv: inv, Res: res})
			} else {
				ops = append(ops, Op{Node: ta.NodeID(i % 3), Kind: Read, Value: values[r.Intn(len(values))], Inv: inv, Res: res})
			}
		}
		if CheckLinearizable(ops, "v0").OK {
			continue
		}
		found++
		small := Shrink(ops, nil, Options{Initial: "v0"})
		if len(small) == 0 || CheckLinearizable(small, "v0").OK {
			t.Fatalf("bad shrink of:\n%v\n→\n%v", ops, small)
		}
		if len(small) > len(ops) {
			t.Fatal("shrink grew the history")
		}
	}
	if found == 0 {
		t.Fatal("generator produced no violations to shrink")
	}
}
