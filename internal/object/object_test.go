package object_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/object"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

func runObject(t *testing.T, model string, spec func() object.Spec, gen object.OpGen,
	newAlg func(object.Spec, register.Params) *object.Alg, cf clock.Factory,
	eps simtime.Duration, seed int64) []linearize.Op {
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

// goldenHistory draws one small seeded history of spec (by name) with
// results picked from a plausible set, so a fair share violate, and
// about one op in eight left pending.
func goldenHistory(r *rand.Rand, spec string) []linearize.Op {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	n := 2 + r.Intn(5)
	ops := make([]linearize.Op, 0, n)
	for i := 0; i < n; i++ {
		var op, res string
		update := r.Intn(5) < 3
		switch spec {
		case "counter":
			op, res = "get", pick("0", "1", "2")
			if update {
				op, res = pick("add:1", "add:2"), ""
			}
		case "gset":
			op, res = pick("has:a", "has:b"), pick("true", "false")
			if r.Intn(4) == 0 {
				op, res = "size", pick("0", "1")
			}
			if update {
				op, res = pick("insert:a", "insert:b"), ""
			}
		case "maxreg":
			op, res = "get", pick("0", "1", "2")
			if update {
				op, res = pick("raise:1", "raise:2", "raise:3"), ""
			}
		case "kvstore":
			op, res = pick("get:a", "get:b"), pick("<nil>", "1")
			if r.Intn(5) == 0 {
				op, res = "keys", pick("0", "1")
			}
			if update {
				op, res = pick("put:a=1", "put:b=1", "del:a"), ""
			}
		}
		inv := simtime.Time(r.Intn(60))
		end := inv.Add(simtime.Duration(1 + r.Intn(30)))
		if r.Intn(8) == 0 {
			end, res = simtime.Never, ""
		}
		ops = append(ops, linearize.Op{Node: ta.NodeID(i % 3), Kind: linearize.Call, Value: op, Result: res, Inv: inv, Res: end})
	}
	return ops
}

// TestCheckObjectVerdictGolden pins the object checker's verdicts on 1 600
// seeded small histories of the counter, grow-set, max-register and KV
// store specs, under plain linearizability, a Widen and a MinAfterInv:
// the hash of the verdict bits was recorded when the checker was a
// separate Wing–Gong search, so a change that moves any verdict fails it.
// Each history is also checked with ApproxEps set, which must change
// nothing.
func TestCheckObjectVerdictGolden(t *testing.T) {
	const want = "3d7c2e0053888342"
	specs := []object.Spec{object.Counter{}, object.GSet{}, object.MaxRegister{}, object.KVStore{}}
	r := rand.New(rand.NewSource(51))
	h := sha256.New()
	var bad, pending, widen, super int
	const trials = 1600
	for trial := 0; trial < trials; trial++ {
		spec := specs[trial%len(specs)]
		ops := goldenHistory(r, spec.Name())
		for _, o := range ops {
			if o.Pending() {
				pending++
			}
		}
		opt := linearize.Options{Initial: spec.Init()}
		switch r.Intn(3) {
		case 1:
			opt.Widen = simtime.Duration(1 + r.Intn(15))
			widen++
		case 2:
			opt.MinAfterInv = simtime.Duration(1 + r.Intn(15))
			super++
		}
		res := linearize.CheckObject(ops, spec, opt)
		if strings.Contains(res.Reason, "state budget") {
			t.Fatalf("trial %d reached the state budget", trial)
		}
		// The ε-approximate fast path is the register's: over a Model
		// every stage is exact, so nothing is pruned.
		approx := opt
		approx.ApproxEps = 20
		if a := linearize.CheckObject(ops, spec, approx); a.OK != res.OK || a.Pruned != 0 {
			t.Fatalf("trial %d: with ApproxEps %+v, exact %+v", trial, a, res)
		}
		bit := byte('1')
		if !res.OK {
			bit = '0'
			bad++
		}
		h.Write([]byte{bit})
	}
	if bad*100 < 15*trials || pending == 0 || widen == 0 || super == 0 {
		t.Fatalf("draw too tame: %d/%d violating, %d pending ops, %d Widen and %d MinAfterInv runs",
			bad, trials, pending, widen, super)
	}
	got := fmt.Sprintf("%x", h.Sum(nil))[:16]
	t.Logf("%d/%d violating, %d pending ops, %d Widen and %d MinAfterInv runs; verdict hash %s",
		bad, trials, pending, widen, super, got)
	if got != want {
		t.Errorf("verdict hash %s, want %s", got, want)
	}
}

// TestHistoryPendingInNodeOrder: operations still open at the end of the
// trace are appended in node order, whatever order they were invoked in,
// so the checker's arrival order (its tie-break) is the same every run.
func TestHistoryPendingInNodeOrder(t *testing.T) {
	ev := func(at simtime.Time, name string, node ta.NodeID, kind ta.Kind, payload any) ta.Event {
		return ta.Event{At: at, Action: ta.Action{Name: name, Node: node, Peer: ta.NoNode, Kind: kind, Payload: payload}}
	}
	tr := ta.Trace{
		ev(0, object.ActUpdate, 2, ta.KindInput, "add:1"),
		ev(10, object.ActAck, 2, ta.KindOutput, nil),
	}
	for i, n := range []ta.NodeID{4, 1, 3, 0, 5, 2} {
		tr = append(tr, ev(simtime.Time(20+i), object.ActQuery, n, ta.KindInput, "get"))
	}
	for run := 0; run < 20; run++ {
		ops, err := object.History(tr)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []ta.NodeID
		for _, o := range ops[1:] {
			nodes = append(nodes, o.Node)
		}
		if fmt.Sprint(nodes) != "[n0 n1 n2 n3 n4 n5]" || ops[0].Pending() {
			t.Fatalf("run %d: history %v, want the completed op, then pending ops of n0…n5 in node order", run, ops)
		}
	}
}
