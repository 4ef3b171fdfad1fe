package object_test

import (
	"fmt"
	"math/rand"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/object"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

// TestObjectRandomizedGrid fuzzes the generalized-object stack: random
// spec, model, ε, delays, and workload mix, always expecting
// linearizability against the sequential specification.
func TestObjectRandomizedGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is several seconds; skipped with -short")
	}
	specs := []struct {
		spec object.Spec
		gen  func(float64) object.OpGen
	}{
		{object.Counter{}, object.CounterOps},
		{object.GSet{}, object.GSetOps},
		{object.MaxRegister{}, object.MaxOps},
		{object.KVStore{}, func(ratio float64) object.OpGen { return object.KVOps(ratio, 3) }},
	}
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(trial)*104729 + 11))
			sc := specs[r.Intn(len(specs))]
			model := "clock"
			if r.Intn(3) == 0 {
				model = "mmt"
			}
			n := 2 + r.Intn(3)
			eps := simtime.Duration(r.Int63n(int64(800*us))) + 10*us
			d1 := simtime.Duration(r.Int63n(int64(ms)))
			d2 := d1 + 500*us + simtime.Duration(r.Int63n(int64(2*ms)))
			ell := 50 * us
			d2p := d2 + 2*eps
			if model == "mmt" {
				d2p += 24 * ell
			}
			p := register.Params{C: 300 * us, Delta: 5 * us, D2: d2p, Epsilon: eps}
			cfg := core.Config{
				N: n, Bounds: simtime.NewInterval(d1, d2), Seed: int64(trial),
				Clocks: clock.DriftFactory(eps, int64(trial)*3), Ell: ell,
			}
			net, err := core.Build(model, cfg, object.Factory(object.NewS, func() object.Spec { return sc.spec }, p))
			if err != nil {
				t.Fatal(err)
			}
			done := object.AllDone(object.Attach(net, object.ClientConfig{
				Ops:     10,
				Think:   simtime.NewInterval(0, 2*ms),
				Gen:     sc.gen(0.3 + 0.4*r.Float64()),
				Seed:    int64(trial) * 17,
				Stagger: 200 * us,
			}))
			if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
				t.Fatal(err)
			}
			if !done() {
				t.Fatalf("clients did not finish (%s/%s)", sc.spec.Name(), model)
			}
			ops, err := object.History(net.Sys.Trace().Visible())
			if err != nil {
				t.Fatal(err)
			}
			res := linearize.CheckObject(ops, sc.spec, linearize.Options{Initial: sc.spec.Init()})
			if !res.OK {
				t.Fatalf("%s in %s not linearizable (n=%d ε=%v d=[%v,%v]): %s",
					sc.spec.Name(), model, n, eps, d1, d2, res.Reason)
			}
		})
	}
}
