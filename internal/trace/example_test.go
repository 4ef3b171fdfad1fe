package trace_test

import (
	"fmt"

	"psclock/internal/ta"
	"psclock/internal/trace"
)

// ExampleMinEps measures the smallest ε for which two traces are related
// by the paper's =_{ε,κ} (Definition 2.8).
func ExampleMinEps() {
	a := ta.Trace{{Action: ta.Action{Name: "X", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput}, At: 10}}
	b := ta.Trace{{Action: ta.Action{Name: "X", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput}, At: 14}}
	eps, _ := trace.MinEps(a, b, trace.ByNode)
	fmt.Println(eps)
	// Output:
	// 4ns
}
