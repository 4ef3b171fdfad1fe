// Counter: the §6 technique generalized to another shared-memory object,
// as the paper's full version promises. A distributed counter with blind
// ADD updates and GET queries runs through the same clock-model
// transformation as the register — the algorithm is written once against
// perfect time — and the history is verified against the counter's
// sequential specification with the generic linearizability checker.
package main

import (
	"fmt"
	"log"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/object"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		ms = simtime.Millisecond
		us = simtime.Microsecond
	)
	eps := 500 * us
	bounds := simtime.NewInterval(1*ms, 3*ms)
	params := register.Params{
		C:       500 * us,
		Delta:   10 * us,
		D2:      bounds.Hi + 2*eps,
		Epsilon: eps,
	}

	net := core.BuildClocked(core.Config{
		N:      4,
		Bounds: bounds,
		Seed:   9,
		Clocks: clock.SawtoothFactory(eps, 8*ms),
	}, object.Factory(object.NewS, func() object.Spec { return object.Counter{} }, params))

	clients := object.Attach(net, object.ClientConfig{
		Ops:     25,
		Think:   simtime.NewInterval(0, 2*ms),
		Gen:     object.CounterOps(0.5),
		Seed:    2,
		Stagger: 250 * us,
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(30 * simtime.Second)); err != nil {
		return err
	}
	total := 0
	for _, c := range clients {
		total += c.Done
	}
	fmt.Printf("%d operations completed at %d nodes under sawtooth clocks (ε = %v)\n",
		total, net.N, eps)

	ops, err := object.History(net.Sys.Trace().Visible())
	if err != nil {
		return err
	}
	r := linearize.CheckObject(ops, object.Counter{}, linearize.Options{Initial: object.Counter{}.Init()})
	if !r.OK {
		return fmt.Errorf("counter history NOT linearizable: %s", r.Reason)
	}
	fmt.Printf("counter history linearizable ✓ (%d states searched)\n", r.States)

	// Show the final convergent value: replay all updates sequentially.
	state := object.Counter{}.Init()
	for _, o := range ops {
		if o.Result == "" && !o.Pending() {
			state, _ = object.Counter{}.Apply(state, o.Op)
		}
	}
	fmt.Printf("final counter value (all %d ops applied): %s\n", total, state)
	return nil
}
