package linearize_test

import (
	"fmt"

	"psclock/internal/linearize"
	"psclock/internal/object"
)

// ExampleCheckLinearizable checks a hand-written history: a read of a
// value strictly after its write completed is fine; reading the initial
// value then would not be.
func ExampleCheckLinearizable() {
	ops := []linearize.Op{
		{Node: 0, Kind: linearize.Write, Value: "a", Inv: 0, Res: 10},
		{Node: 1, Kind: linearize.Read, Value: "a", Inv: 20, Res: 30},
	}
	fmt.Println(linearize.CheckLinearizable(ops, "v0").OK)

	stale := []linearize.Op{
		{Node: 0, Kind: linearize.Write, Value: "a", Inv: 0, Res: 10},
		{Node: 1, Kind: linearize.Read, Value: "v0", Inv: 20, Res: 30},
	}
	fmt.Println(linearize.CheckLinearizable(stale, "v0").OK)
	// Output:
	// true
	// false
}

// ExampleCheckObject verifies a distributed counter history against its
// sequential specification: each op is a Call on the Model.
func ExampleCheckObject() {
	ops := []linearize.Op{
		{Node: 0, Kind: linearize.Call, Value: "add:2", Inv: 0, Res: 10},
		{Node: 1, Kind: linearize.Call, Value: "get", Result: "2", Inv: 20, Res: 30},
	}
	r := linearize.CheckObject(ops, object.Counter{}, linearize.Options{Initial: "0"})
	fmt.Println(r.OK)
	// Output:
	// true
}
