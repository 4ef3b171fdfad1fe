package core_test

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/workload"
)

// ExampleBuildClocked runs the paper's transformed register algorithm S in
// the clock model and verifies Theorem 6.5's promise: plain
// linearizability, with no node ever seeing real time.
func ExampleBuildClocked() {
	eps := 500 * simtime.Microsecond
	bounds := simtime.NewInterval(1*simtime.Millisecond, 3*simtime.Millisecond)
	p := register.Params{
		C:       700 * simtime.Microsecond,
		Delta:   10 * simtime.Microsecond,
		D2:      bounds.Hi + 2*eps, // d'2 of Theorem 4.7
		Epsilon: eps,
	}
	net := core.BuildClocked(core.Config{
		N: 3, Bounds: bounds, Seed: 42,
		Clocks: clock.DriftFactory(eps, 7),
	}, register.Factory(register.NewS, p))

	workload.Attach(net, workload.Config{
		Ops: 10, Think: simtime.NewInterval(0, 2*simtime.Millisecond), WriteRatio: 0.4, Seed: 1,
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
		fmt.Println("error:", err)
		return
	}
	ops, err := register.History(net.Sys.Trace().Visible())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := linearize.CheckLinearizable(ops, register.Initial.String())
	fmt.Println("ops:", len(ops), "linearizable:", r.OK)
	// Output:
	// ops: 30 linearizable: true
}
