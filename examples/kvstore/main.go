// KVStore: a replicated configuration store on five nodes whose clocks
// are disciplined by an NTP-style resync loop (the paper's §1 motivation:
// "capable of accuracies in the order of a millisecond"). Puts and
// deletes are blind updates, gets are keyed queries — the blind-update /
// query object class of the generalized §6 algorithm — so the whole store
// is linearizable in the clock model with put cost d2+2ε−c and get cost
// 2ε+δ+c, and no node ever reads real time.
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
	"psclock/internal/stats"
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
	eps := 1 * ms // NTP-grade accuracy
	bounds := simtime.NewInterval(2*ms, 8*ms)
	params := register.Params{
		C:       1 * ms,
		Delta:   20 * us,
		D2:      bounds.Hi + 2*eps,
		Epsilon: eps,
	}

	// Each node's clock drifts at a different rate and resyncs on its own
	// schedule, all within ±ε.
	clocks := func(node int) clock.Model {
		rates := []int64{-400, 250, -150, 500, -300}
		return clock.Resync(eps, rates[node%len(rates)], simtime.Duration(20+node*7)*ms)
	}

	net := core.BuildClocked(core.Config{
		N:      5,
		Bounds: bounds,
		Seed:   31,
		Clocks: clocks,
	}, object.Factory(object.NewS, func() object.Spec { return object.KVStore{} }, params))

	clients := object.Attach(net, object.ClientConfig{
		Ops:     30,
		Think:   simtime.NewInterval(0, 5*ms),
		Gen:     object.KVOps(0.5, 4),
		Seed:    8,
		Stagger: 500 * us,
	})
	if _, err := net.Sys.RunQuiet(simtime.Time(60 * simtime.Second)); err != nil {
		return err
	}
	total := 0
	for _, c := range clients {
		total += c.Done
	}

	ops, err := object.History(net.Sys.Trace().Visible())
	if err != nil {
		return err
	}
	var gets, puts []simtime.Duration
	for _, o := range ops {
		if o.Pending() {
			continue
		}
		if o.Result != "" {
			gets = append(gets, o.Res.Sub(o.Inv))
		} else {
			puts = append(puts, o.Res.Sub(o.Inv))
		}
	}
	fmt.Printf("%d ops at 5 nodes, resync clocks (ε = %v), links %v\n", total, eps, bounds)
	fmt.Printf("gets: %v (paper: %v)\n", stats.Summarize(gets), 2*eps+params.Delta+params.C)
	fmt.Printf("puts: %v (paper: %v)\n", stats.Summarize(puts), params.D2-params.C)

	r := linearize.CheckObject(ops, object.KVStore{}, linearize.Options{Initial: object.KVStore{}.Init()})
	if !r.OK {
		return fmt.Errorf("KV history NOT linearizable: %s", r.Reason)
	}
	fmt.Printf("KV history linearizable ✓ (%d states searched)\n", r.States)

	// Final store contents, replayed sequentially.
	state := object.KVStore{}.Init()
	for _, o := range ops {
		if o.Result == "" && !o.Pending() {
			state, _ = object.KVStore{}.Apply(state, o.Op)
		}
	}
	fmt.Printf("final store: %q\n", state)
	return nil
}
