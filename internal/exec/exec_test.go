package exec

import (
	"errors"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// pinger emits a PING output every period, n times.
type pinger struct {
	name   string
	period simtime.Duration
	left   int
	next   simtime.Time
}

func (p *pinger) Name() string                                { return p.name }
func (p *pinger) Init() []ta.Action                           { p.next = simtime.Zero.Add(p.period); return nil }
func (p *pinger) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }

func (p *pinger) Due(simtime.Time) (simtime.Time, bool) {
	if p.left == 0 {
		return 0, false
	}
	return p.next, true
}

func (p *pinger) Fire(now simtime.Time) []ta.Action {
	if p.left == 0 || now.Before(p.next) {
		return nil
	}
	p.left--
	p.next = now.Add(p.period)
	return []ta.Action{{Name: "PING", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: p.left}}
}

// echoer replies PONG immediately upon PING.
type echoer struct{ got int }

func (e *echoer) Name() string      { return "echoer" }
func (e *echoer) Init() []ta.Action { return nil }

func (e *echoer) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	e.got++
	return []ta.Action{{Name: "PONG", Node: 1, Peer: ta.NoNode, Kind: ta.KindOutput, Payload: a.Payload}}
}

func (e *echoer) Due(simtime.Time) (simtime.Time, bool) { return 0, false }
func (e *echoer) Fire(simtime.Time) []ta.Action         { return nil }

func named(name string) func(ta.Action) bool {
	return func(a ta.Action) bool { return a.Name == name }
}

func TestRunFiresPeriodically(t *testing.T) {
	s := New()
	p := &pinger{name: "pinger", period: simtime.Millisecond, left: 3}
	s.Add(p)
	if err := s.Run(simtime.Time(10 * simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace len = %d, want 3:\n%v", len(tr), tr)
	}
	for i, e := range tr {
		want := simtime.Time((i + 1)) * simtime.Time(simtime.Millisecond)
		if e.At != want {
			t.Errorf("event %d at %v, want %v", i, e.At, want)
		}
	}
	if s.Now() != simtime.Time(10*simtime.Millisecond) {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSameInstantChain(t *testing.T) {
	s := New()
	p := &pinger{name: "pinger", period: simtime.Millisecond, left: 2}
	e := &echoer{}
	s.Add(p)
	s.Add(e)
	s.Connect(named("PING"), e)
	if err := s.Run(simtime.Time(5 * simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	// PING, PONG, PING, PONG — pongs at the same instant as their pings.
	if len(tr) != 4 {
		t.Fatalf("trace len = %d, want 4:\n%v", len(tr), tr)
	}
	if tr[0].Action.Name != "PING" || tr[1].Action.Name != "PONG" {
		t.Errorf("order wrong: %v", tr.Labels())
	}
	if tr[1].At != tr[0].At {
		t.Errorf("PONG at %v, want same instant as PING %v", tr[1].At, tr[0].At)
	}
	if e.got != 2 {
		t.Errorf("echoer got %d pings", e.got)
	}
}

func TestHide(t *testing.T) {
	s := New()
	p := &pinger{name: "pinger", period: simtime.Millisecond, left: 1}
	e := &echoer{}
	s.Add(p)
	s.Add(e)
	s.Connect(named("PING"), e)
	s.Hide(named("PING"))
	if err := s.Run(simtime.Time(2 * simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	vis := s.Trace().Visible()
	if len(vis) != 1 || vis[0].Action.Name != "PONG" {
		t.Errorf("visible = %v", vis.Labels())
	}
	// Hiding affects the trace, not routing: echoer still got the ping.
	if e.got != 1 {
		t.Errorf("echoer got %d", e.got)
	}
}

func TestHideCompose(t *testing.T) {
	s := New()
	p := &pinger{name: "pinger", period: simtime.Millisecond, left: 1}
	e := &echoer{}
	s.Add(p)
	s.Add(e)
	s.Connect(named("PING"), e)
	s.Hide(named("PING"))
	s.Hide(named("PONG"))
	if err := s.Run(simtime.Time(2 * simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if vis := s.Trace().Visible(); len(vis) != 0 {
		t.Errorf("visible = %v", vis.Labels())
	}
}

func TestInject(t *testing.T) {
	s := New()
	e := &echoer{}
	s.Add(e)
	s.Connect(named("PING"), e)
	s.Inject(ta.Action{Name: "PING", Node: 0, Kind: ta.KindInput, Payload: 1})
	tr := s.Trace()
	if len(tr) != 2 || tr[0].Action.Name != "PING" || tr[1].Action.Name != "PONG" {
		t.Errorf("trace = %v", tr.Labels())
	}
	if tr[0].Src != "" || tr[1].Src != "echoer" {
		t.Errorf("sources = %q, %q", tr[0].Src, tr[1].Src)
	}
}

func TestDuplicateName(t *testing.T) {
	s := New()
	s.Add(&pinger{name: "x", period: 1, left: 1})
	s.Add(&pinger{name: "x", period: 1, left: 1})
	if err := s.Run(1); err == nil {
		t.Error("duplicate name accepted")
	}
}

// stuck reports a due deadline but never fires.
type stuck struct{}

func (stuck) Name() string                                { return "stuck" }
func (stuck) Init() []ta.Action                           { return nil }
func (stuck) Deliver(simtime.Time, ta.Action) []ta.Action { return nil }
func (stuck) Due(simtime.Time) (simtime.Time, bool)       { return 5, true }
func (stuck) Fire(simtime.Time) []ta.Action               { return nil }

func TestStuckDetected(t *testing.T) {
	s := New()
	s.Add(stuck{})
	err := s.Run(10)
	if !errors.Is(err, ErrStuck) {
		t.Errorf("err = %v, want ErrStuck", err)
	}
}

// looper replies to its own action forever at the same instant.
type looper struct{}

func (looper) Name() string      { return "looper" }
func (looper) Init() []ta.Action { return []ta.Action{{Name: "LOOP", Kind: ta.KindOutput}} }
func (looper) Deliver(now simtime.Time, a ta.Action) []ta.Action {
	return []ta.Action{{Name: "LOOP", Kind: ta.KindOutput}}
}
func (looper) Due(simtime.Time) (simtime.Time, bool) { return 0, false }
func (looper) Fire(simtime.Time) []ta.Action         { return nil }

func TestZeroDelayCycleDetected(t *testing.T) {
	s := New()
	l := looper{}
	s.Add(l)
	s.Connect(named("LOOP"), l)
	err := s.Run(1)
	if !errors.Is(err, ErrChain) {
		t.Errorf("err = %v, want ErrChain", err)
	}
}

func TestRunQuiet(t *testing.T) {
	s := New()
	s.Add(&pinger{name: "p", period: simtime.Millisecond, left: 2})
	quiet, err := s.RunQuiet(simtime.Time(simtime.Second))
	if err != nil || !quiet {
		t.Errorf("quiet=%v err=%v", quiet, err)
	}
	if len(s.Trace()) != 2 {
		t.Errorf("trace len = %d", len(s.Trace()))
	}

	s2 := New()
	s2.Add(&pinger{name: "p", period: simtime.Millisecond, left: 1000})
	quiet, err = s2.RunQuiet(simtime.Time(3 * simtime.Millisecond))
	if err != nil || quiet {
		t.Errorf("quiet=%v err=%v, want not quiet", quiet, err)
	}
}

func TestStepAdvances(t *testing.T) {
	s := New()
	s.Add(&pinger{name: "p", period: simtime.Millisecond, left: 2})
	if !s.Step() {
		t.Fatal("first Step returned false")
	}
	if s.Now() != simtime.Time(simtime.Millisecond) {
		t.Errorf("Now = %v", s.Now())
	}
	if !s.Step() {
		t.Fatal("second Step returned false")
	}
	if s.Step() {
		t.Error("third Step should report exhaustion")
	}
}

func TestTraceWellFormed(t *testing.T) {
	s := New()
	p := &pinger{name: "pinger", period: simtime.Millisecond, left: 5}
	e := &echoer{}
	s.Add(p)
	s.Add(e)
	s.Connect(named("PING"), e)
	if err := s.Run(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Trace().CheckWellFormed(); err != nil {
		t.Error(err)
	}
}

func TestReplace(t *testing.T) {
	s := New()
	p := &pinger{name: "x", period: simtime.Millisecond, left: 5}
	e := &echoer{}
	s.Add(p)
	s.Add(e)
	s.Connect(named("PING"), e)
	// Replace the echoer with a fresh one before running; the subscription
	// must be redirected.
	e2 := &echoer{}
	// echoer has a fixed name, so Replace matches.
	s.Replace("echoer", e2)
	if err := s.Run(simtime.Time(10 * simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.got != 0 || e2.got != 5 {
		t.Errorf("old got %d, new got %d", e.got, e2.got)
	}
}

func TestReplaceValidation(t *testing.T) {
	s := New()
	s.Add(&pinger{name: "x", period: 1, left: 1})
	s.Replace("missing", &pinger{name: "missing", period: 1, left: 1})
	if s.Err() == nil {
		t.Error("replace of missing component accepted")
	}
	s2 := New()
	s2.Add(&pinger{name: "x", period: 1, left: 1})
	s2.Replace("x", &pinger{name: "y", period: 1, left: 1})
	if s2.Err() == nil {
		t.Error("replace with mismatched name accepted")
	}
}
