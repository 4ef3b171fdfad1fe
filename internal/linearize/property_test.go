package linearize

import (
	"fmt"
	"math/rand"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// randHistory draws a small random register history (some linearizable,
// some not).
func randHistory(r *rand.Rand) []Op {
	n := 2 + r.Intn(6)
	values := []string{"v0"}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		inv := simtime.Time(r.Intn(60))
		res := inv.Add(simtime.Duration(1 + r.Intn(40)))
		if r.Intn(2) == 0 {
			v := fmt.Sprintf("w%d", i)
			values = append(values, v)
			ops = append(ops, Op{Node: ta.NodeID(i % 3), Kind: Write, Value: v, Inv: inv, Res: res})
		} else {
			ops = append(ops, Op{Node: ta.NodeID(i % 3), Kind: Read, Value: values[r.Intn(len(values))], Inv: inv, Res: res})
		}
	}
	return ops
}

// Widening the windows can only help: OK is monotone in Widen.
func TestPropertyWidenMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		ops := randHistory(r)
		base := Check(ops, Options{Initial: "v0"})
		wide := Check(ops, Options{Initial: "v0", Widen: simtime.Duration(1 + r.Intn(50))})
		if base.OK && !wide.OK {
			t.Fatalf("widening broke a linearizable history:\n%v", ops)
		}
	}
}

// Decreasing the superlinearizability ε can only help: OK is antitone in
// MinAfterInv.
func TestPropertyMinAfterInvAntitone(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		ops := randHistory(r)
		big := simtime.Duration(1 + r.Intn(30))
		small := simtime.Duration(r.Int63n(int64(big)))
		strict := Check(ops, Options{Initial: "v0", MinAfterInv: big})
		loose := Check(ops, Options{Initial: "v0", MinAfterInv: small})
		if strict.OK && !loose.OK {
			t.Fatalf("smaller MinAfterInv broke a history (big=%v small=%v):\n%v", big, small, ops)
		}
	}
}

// Superlinearizability implies linearizability (the ε = 0 case of Q ⊆ P).
func TestPropertySuperImpliesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		ops := randHistory(r)
		super := CheckSuperLinearizable(ops, "v0", simtime.Duration(1+r.Intn(20)))
		plain := CheckLinearizable(ops, "v0")
		if super.OK && !plain.OK {
			t.Fatalf("superlinearizable but not linearizable:\n%v", ops)
		}
	}
}

// Delaying every response preserves linearizability (windows only widen):
// the §6.3 argument that response shifts — the P^δ of Theorem 5.2 — keep
// the register problem solved.
func TestPropertyResponseShiftPreserves(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 400; trial++ {
		ops := randHistory(r)
		if !CheckLinearizable(ops, "v0").OK {
			continue
		}
		shifted := make([]Op, len(ops))
		copy(shifted, ops)
		for i := range shifted {
			shifted[i].Res = shifted[i].Res.Add(simtime.Duration(r.Intn(30)))
		}
		if !CheckLinearizable(shifted, "v0").OK {
			t.Fatalf("delaying responses broke linearizability:\n%v\n→\n%v", ops, shifted)
		}
	}
}

// ShiftFuture is equivalent to actually moving every response later by δ
// in the best case: if the plain check accepts, so does ShiftFuture; and
// ShiftFuture(δ) accepts whenever moving all responses by δ would.
func TestPropertyShiftFutureMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		ops := randHistory(r)
		base := CheckLinearizable(ops, "v0")
		sh := Check(ops, Options{Initial: "v0", ShiftFuture: simtime.Duration(1 + r.Intn(40))})
		if base.OK && !sh.OK {
			t.Fatalf("ShiftFuture broke a linearizable history:\n%v", ops)
		}
	}
}

// The engine's Call path over the register model agrees with its
// Read/Write path under every option combination.
func TestPropertyGenericAgreesWithOptions(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 250; trial++ {
		rops := randHistory(r)
		gops := make([]Op, len(rops))
		for i, o := range rops {
			if o.Kind == Write {
				gops[i] = Op{Node: o.Node, Kind: Call, Value: "write:" + o.Value, Inv: o.Inv, Res: o.Res}
			} else {
				gops[i] = Op{Node: o.Node, Kind: Call, Value: "read", Result: o.Value, Inv: o.Inv, Res: o.Res}
			}
		}
		opt := Options{
			Initial:     "v0",
			MinAfterInv: simtime.Duration(r.Intn(15)),
			Widen:       simtime.Duration(r.Intn(15)),
			ShiftFuture: simtime.Duration(r.Intn(15)),
		}
		want := Check(rops, opt)
		got := CheckObject(gops, regModel{}, opt)
		if want.OK != got.OK {
			t.Fatalf("disagreement (opt=%+v): register=%v generic=%v\n%v", opt, want.OK, got.OK, rops)
		}
	}
}
