package channel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

const ms = simtime.Millisecond

func bounds() simtime.Interval { return simtime.NewInterval(1*ms, 3*ms) }

func send(body string) ta.Action {
	return ta.Action{Name: ta.NameSendMsg, Node: 0, Peer: 1, Kind: ta.KindOutput, Payload: ta.Msg{Body: body}}
}

func TestDelayPoliciesWithinBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	iv := bounds()
	policies := []DelayPolicy{MinDelay(), MaxDelay(), UniformDelay(), SpreadDelay(), BimodalDelay(0.3)}
	for _, p := range policies {
		for i := 0; i < 200; i++ {
			d := p.Delay(r, iv)
			if !iv.Contains(d) {
				t.Errorf("%s produced %v outside %v", p.Name(), d, iv)
			}
		}
	}
}

func TestDelayPolicyExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	iv := bounds()
	if MinDelay().Delay(r, iv) != iv.Lo {
		t.Error("min != Lo")
	}
	if MaxDelay().Delay(r, iv) != iv.Hi {
		t.Error("max != Hi")
	}
	sp := SpreadDelay()
	a, b := sp.Delay(r, iv), sp.Delay(r, iv)
	if a == b {
		t.Error("spread did not alternate")
	}
	if UniformDelay().Delay(r, simtime.NewInterval(ms, ms)) != ms {
		t.Error("uniform on a point interval")
	}
}

func TestEdgeDeliversWithinBounds(t *testing.T) {
	e := New(0, 1, bounds(), UniformDelay(), 7)
	s := exec.New()
	s.Add(e)
	s.ConnectHeader(e.Matches, e)
	for i := 0; i < 50; i++ {
		s.Inject(send(string(rune('a' + i%26))))
		// Send at distinct times so message bodies needn't be unique here.
		if err := s.Run(s.Now().Add(500 * simtime.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	delays, err := tr.MessageDelays(ta.NameSendMsg, ta.NameRecvMsg)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 50 {
		t.Fatalf("delivered %d, want 50", len(delays))
	}
	for _, d := range delays {
		if !bounds().Contains(d) {
			t.Errorf("delay %v outside %v", d, bounds())
		}
	}
	if e.Delivered != 50 || e.InFlight() != 0 {
		t.Errorf("Delivered=%d InFlight=%d", e.Delivered, e.InFlight())
	}
}

func TestEdgeIgnoresForeignActions(t *testing.T) {
	e := New(0, 1, bounds(), MinDelay(), 1)
	if out := e.Deliver(0, ta.Action{Name: ta.NameSendMsg, Node: 1, Peer: 0, Payload: ta.Msg{Body: "x"}}); out != nil {
		t.Error("foreign direction handled")
	}
	if out := e.Deliver(0, ta.Action{Name: "READ", Node: 0}); out != nil {
		t.Error("non-message handled")
	}
	if e.InFlight() != 0 {
		t.Error("message queued")
	}
}

func TestEdgeReordersWithSpread(t *testing.T) {
	e := New(0, 1, bounds(), SpreadDelay(), 1)
	s := exec.New()
	s.Add(e)
	s.ConnectHeader(e.Matches, e)
	s.Inject(send("first"))  // spread: Hi = 3ms → arrives at 3ms
	s.Inject(send("second")) // spread: Lo = 1ms → arrives at 1ms
	if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	recvs := s.Trace().Named(ta.NameRecvMsg)
	if len(recvs) != 2 {
		t.Fatalf("recvs = %d", len(recvs))
	}
	if recvs[0].Action.Payload.(ta.Msg).Body != "second" {
		t.Errorf("expected reordering, got %v first", recvs[0].Action.Payload)
	}
}

func TestEdgeFIFO(t *testing.T) {
	e := New(0, 1, bounds(), SpreadDelay(), 1)
	e.FIFO = true
	s := exec.New()
	s.Add(e)
	s.ConnectHeader(e.Matches, e)
	s.Inject(send("first"))
	s.Inject(send("second"))
	if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	recvs := s.Trace().Named(ta.NameRecvMsg)
	if len(recvs) != 2 {
		t.Fatalf("recvs = %d", len(recvs))
	}
	if recvs[0].Action.Payload.(ta.Msg).Body != "first" {
		t.Errorf("FIFO violated: %v first", recvs[0].Action.Payload)
	}
	if recvs[0].At != recvs[1].At {
		t.Errorf("FIFO delay clamp: %v then %v, want equal", recvs[0].At, recvs[1].At)
	}
}

func TestClockEdgeInterface(t *testing.T) {
	e := NewClock(2, 3, bounds(), MinDelay(), 1)
	a := ta.Action{Name: ta.NameESendMsg, Node: 2, Peer: 3, Kind: ta.KindOutput,
		Payload: ta.TaggedMsg{Body: "m", SentClock: 5}}
	if !e.Matches(a) {
		t.Fatal("clock edge does not match ESENDMSG")
	}
	e.Deliver(0, a)
	due, ok := e.Due(0)
	if !ok || due != simtime.Time(ms) {
		t.Fatalf("due = %v, %v", due, ok)
	}
	out := e.Fire(due)
	if len(out) != 1 || out[0].Name != ta.NameERecvMsg || out[0].Node != 3 || out[0].Peer != 2 {
		t.Fatalf("out = %v", out)
	}
	tm, ok := out[0].Payload.(ta.TaggedMsg)
	if !ok || tm.SentClock != 5 {
		t.Fatalf("payload = %v", out[0].Payload)
	}
}

// brokenPolicy violates the bounds on purpose.
type brokenPolicy struct{}

func (brokenPolicy) Name() string { return "broken" }
func (brokenPolicy) Delay(*rand.Rand, simtime.Interval) simtime.Duration {
	return 100 * ms
}

func TestEdgeClampsBrokenPolicy(t *testing.T) {
	e := New(0, 1, bounds(), brokenPolicy{}, 1)
	e.Deliver(0, send("x"))
	due, ok := e.Due(0)
	if !ok || due != simtime.Time(3*ms) {
		t.Errorf("broken policy not clamped to d2: due=%v", due)
	}
}

func TestEdgeDeterminism(t *testing.T) {
	run := func() []string {
		e := New(0, 1, bounds(), UniformDelay(), 99)
		s := exec.New()
		s.Add(e)
		s.ConnectHeader(e.Matches, e)
		for i := 0; i < 20; i++ {
			s.Inject(send(string(rune('a' + i))))
			if err := s.Run(s.Now().Add(200 * simtime.Microsecond)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
			t.Fatal(err)
		}
		return s.Trace().Labels()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: whatever the seed, uniform delays stay in bounds and FIFO
// preserves per-link order.
func TestEdgeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		cnt := int(n%20) + 1
		e := New(0, 1, bounds(), UniformDelay(), seed)
		e.FIFO = true
		s := exec.New()
		s.Add(e)
		s.ConnectHeader(e.Matches, e)
		for i := 0; i < cnt; i++ {
			s.Inject(ta.Action{Name: ta.NameSendMsg, Node: 0, Peer: 1, Kind: ta.KindOutput,
				Payload: ta.Msg{Body: i}})
		}
		if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
			return false
		}
		recvs := s.Trace().Named(ta.NameRecvMsg)
		if len(recvs) != cnt {
			return false
		}
		for i, e := range recvs {
			if e.Action.Payload.(ta.Msg).Body.(int) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEdgeDrop(t *testing.T) {
	e := New(0, 1, bounds(), MinDelay(), 1)
	e.Drop = func(seq int, _ *rand.Rand) bool { return seq%2 == 0 }
	s := exec.New()
	s.Add(e)
	s.ConnectHeader(e.Matches, e)
	for i := 0; i < 6; i++ {
		s.Inject(ta.Action{Name: ta.NameSendMsg, Node: 0, Peer: 1, Kind: ta.KindOutput,
			Payload: ta.Msg{Body: i}})
	}
	if _, err := s.RunQuiet(simtime.Time(simtime.Second)); err != nil {
		t.Fatal(err)
	}
	recvs := s.Trace().Named(ta.NameRecvMsg)
	if len(recvs) != 3 {
		t.Fatalf("delivered %d, want 3", len(recvs))
	}
	if e.Dropped != 3 {
		t.Errorf("Dropped = %d", e.Dropped)
	}
	// Odd ordinals survive.
	for i, r := range recvs {
		if r.Action.Payload.(ta.Msg).Body.(int) != 2*i+1 {
			t.Errorf("recv %d = %v", i, r.Action.Payload)
		}
	}
}
