package object_test

import (
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/object"
	"psclock/internal/register"
	"psclock/internal/simtime"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func runObject(t *testing.T, model string, spec func() object.Spec, gen object.OpGen,
	newAlg func(object.Spec, register.Params) *object.Alg, cf clock.Factory,
	eps simtime.Duration, seed int64) []linearize.GOp {
	t.Helper()
	bounds := simtime.NewInterval(1*ms, 3*ms)
	ell := 50 * us
	d2p := bounds.Hi
	if model != "timed" {
		d2p += 2 * eps
	}
	if model == "mmt" {
		d2p += 24 * ell
	}
	p := register.Params{C: 500 * us, Delta: 10 * us, D2: d2p, Epsilon: eps}
	cfg := core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: cf, Ell: ell}
	net, err := core.Build(model, cfg, object.Factory(newAlg, spec, p))
	if err != nil {
		t.Fatal(err)
	}
	done := object.AllDone(object.Attach(net, object.ClientConfig{
		Ops:     20,
		Think:   simtime.NewInterval(0, 2*ms),
		Gen:     gen,
		Seed:    seed,
		Stagger: 300 * us,
	}))
	if err := net.RunUntil(done, simtime.Time(30*simtime.Second)); err != nil {
		t.Fatal(err)
	}
	if !done() {
		t.Fatal("clients did not finish")
	}
	ops, err := object.History(net.Sys.Trace().Visible())
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func specOf[T object.Spec](v T) func() object.Spec {
	return func() object.Spec { return v }
}

func TestObjectsLinearizableAcrossModels(t *testing.T) {
	eps := 400 * us
	cases := []struct {
		name string
		spec func() object.Spec
		gen  object.OpGen
	}{
		{"counter", specOf(object.Counter{}), object.CounterOps(0.5)},
		{"gset", specOf(object.GSet{}), object.GSetOps(0.5)},
		{"maxreg", specOf(object.MaxRegister{}), object.MaxOps(0.5)},
		{"register", specOf(object.Register{}), object.RegisterOps(0.4)},
	}
	for _, model := range []string{"timed", "clock", "mmt"} {
		for _, c := range cases {
			c := c
			model := model
			t.Run(model+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cf := clock.DriftFactory(eps, 17)
				if model == "timed" {
					cf = clock.PerfectFactory()
				}
				ops := runObject(t, model, c.spec, c.gen, object.NewS, cf, eps, 7)
				r := linearize.CheckObject(ops, c.spec(), linearize.Options{Initial: c.spec().Init()})
				if !r.OK {
					t.Fatalf("%s in %s not linearizable: %s", c.name, model, r.Reason)
				}
			})
		}
	}
}

func TestObjectsUnderMaxSkew(t *testing.T) {
	eps := 700 * us
	for _, c := range []struct {
		name string
		spec func() object.Spec
		gen  object.OpGen
	}{
		{"counter", specOf(object.Counter{}), object.CounterOps(0.6)},
		{"gset", specOf(object.GSet{}), object.GSetOps(0.6)},
	} {
		ops := runObject(t, "clock", c.spec, c.gen, object.NewS, clock.SpreadFactory(eps), eps, 3)
		r := linearize.CheckObject(ops, c.spec(), linearize.Options{Initial: c.spec().Init()})
		if !r.OK {
			t.Fatalf("%s under max skew not linearizable: %s", c.name, r.Reason)
		}
	}
}

// The L variant (no 2ε query wait) must break in the clock model — the
// generalized form of the §6.2 observation.
func TestObjectLViolatesInClockModel(t *testing.T) {
	eps := 1 * ms
	violated := false
	for seed := int64(0); seed < 12 && !violated; seed++ {
		bounds := simtime.NewInterval(200*us, 400*us)
		p := register.Params{C: 0, Delta: 5 * us, D2: bounds.Hi + 2*eps, Epsilon: 0}
		cfg := core.Config{N: 3, Bounds: bounds, Seed: seed, Clocks: clock.SpreadFactory(eps)}
		net := core.BuildClocked(cfg, object.Factory(object.NewL, specOf(object.Counter{}), p))
		clients := object.Attach(net, object.ClientConfig{
			Ops:     40,
			Think:   simtime.NewInterval(0, 600*us),
			Gen:     object.CounterOps(0.4),
			Seed:    seed * 131,
			Stagger: 100 * us,
		})
		if _, err := net.Sys.RunQuiet(simtime.Time(10 * simtime.Second)); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if c.Done != 40 {
				t.Fatalf("%s: %d/40", c.Name(), c.Done)
			}
		}
		ops, err := object.History(net.Sys.Trace().Visible())
		if err != nil {
			t.Fatal(err)
		}
		if r := linearize.CheckObject(ops, object.Counter{}, linearize.Options{Initial: "0"}); !r.OK {
			violated = true
		}
	}
	if !violated {
		t.Fatal("generalized L never violated linearizability in the clock model")
	}
}

func TestSpecSemantics(t *testing.T) {
	// Counter.
	var cnt object.Counter
	s, r := cnt.Apply("0", "add:3")
	if s != "3" || r != "" {
		t.Errorf("add: %q %q", s, r)
	}
	s, r = cnt.Apply("3", "get")
	if s != "3" || r != "3" {
		t.Errorf("get: %q %q", s, r)
	}
	if _, r = cnt.Apply("3", "nope"); r == "" {
		t.Error("bad op accepted")
	}
	if _, r = cnt.Apply("x", "get"); r != "bad-state" {
		t.Error("bad state accepted")
	}

	// GSet.
	var gs object.GSet
	s, _ = gs.Apply("", "insert:b")
	s, _ = gs.Apply(s, "insert:a")
	if s != "a,b" {
		t.Errorf("set state %q", s)
	}
	s2, _ := gs.Apply(s, "insert:a") // idempotent
	if s2 != s {
		t.Error("re-insert changed state")
	}
	if _, r = gs.Apply(s, "has:a"); r != "true" {
		t.Errorf("has:a = %q", r)
	}
	if _, r = gs.Apply(s, "has:z"); r != "false" {
		t.Errorf("has:z = %q", r)
	}
	if _, r = gs.Apply(s, "size"); r != "2" {
		t.Errorf("size = %q", r)
	}

	// MaxRegister.
	var mx object.MaxRegister
	s, _ = mx.Apply("0", "raise:5")
	s, _ = mx.Apply(s, "raise:3")
	if s != "5" {
		t.Errorf("max state %q", s)
	}
	if _, r = mx.Apply(s, "get"); r != "5" {
		t.Errorf("max get %q", r)
	}

	// Register.
	var rg object.Register
	s, _ = rg.Apply("v0", "write:a")
	if s != "a" {
		t.Errorf("register state %q", s)
	}
	if _, r = rg.Apply(s, "read"); r != "a" {
		t.Errorf("register read %q", r)
	}
}

func TestHistoryAlternation(t *testing.T) {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	p := register.Params{C: 0, Delta: 10 * us, D2: bounds.Hi, Epsilon: 0}
	net := core.BuildTimed(core.Config{N: 1, Bounds: bounds, Seed: 1},
		object.Factory(object.NewS, specOf(object.Counter{}), p))
	net.Invoke(0, object.ActQuery, "get")
	net.Invoke(0, object.ActQuery, "get")
	_ = net.Sys.Run(simtime.Time(10 * ms))
	if _, err := object.History(net.Sys.Trace().Visible()); err == nil {
		t.Fatal("alternation violation undetected")
	}
}

func TestKVStoreSpecSemantics(t *testing.T) {
	var kv object.KVStore
	s, r := kv.Apply("", "put:a=1")
	if s != "a=1" || r != "" {
		t.Errorf("put: %q %q", s, r)
	}
	s, _ = kv.Apply(s, "put:b=2")
	if s != "a=1;b=2" {
		t.Errorf("state %q", s)
	}
	if _, r = kv.Apply(s, "get:a"); r != "1" {
		t.Errorf("get:a = %q", r)
	}
	if _, r = kv.Apply(s, "get:z"); r != "<nil>" {
		t.Errorf("get:z = %q", r)
	}
	if _, r = kv.Apply(s, "keys"); r != "2" {
		t.Errorf("keys = %q", r)
	}
	s, _ = kv.Apply(s, "del:a")
	if s != "b=2" {
		t.Errorf("after del %q", s)
	}
	s, _ = kv.Apply(s, "put:b=3") // overwrite
	if s != "b=3" {
		t.Errorf("after overwrite %q", s)
	}
	if _, r = kv.Apply(s, "put:malformed"); r == "" {
		t.Error("malformed put accepted")
	}
	if _, r = kv.Apply(s, "nonsense"); r == "" {
		t.Error("bad op accepted")
	}
}

func TestKVStoreEndToEnd(t *testing.T) {
	eps := 500 * us
	ops := runObject(t, "clock", specOf(object.KVStore{}), object.KVOps(0.5, 3),
		object.NewS, clock.SpreadFactory(eps), eps, 21)
	r := linearize.CheckObject(ops, object.KVStore{}, linearize.Options{Initial: ""})
	if !r.OK {
		t.Fatalf("KV store not linearizable: %s", r.Reason)
	}
}
