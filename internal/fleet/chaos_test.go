package fleet

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"psclock/internal/simtime"
)

func TestParseScriptRoundTrip(t *testing.T) {
	spec := "crash@1.2s:1; partition@3.5s+1.2s:0-2; delay@5.5s+800ms:1+15ms; clockstep@7.9s+600ms:2+3ms!flagged; clockstep@9s+500ms:0+-3ms"
	s, err := ParseScript(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("parsed %d faults, want 5", len(s))
	}
	if s[0].Kind != FaultCrash || s[0].Target != 1 || s[0].Start != 1200*time.Millisecond {
		t.Errorf("crash parsed as %+v", s[0])
	}
	if s[1].Kind != FaultPartition || s[1].Peer != 2 || s[1].Dur != 1200*time.Millisecond {
		t.Errorf("partition parsed as %+v", s[1])
	}
	if s[2].Amount != 15*simtime.Millisecond {
		t.Errorf("delay amount = %v, want 15ms", s[2].Amount)
	}
	if s[3].Expect != OutcomeFlagged {
		t.Errorf("clockstep expect = %q, want flagged", s[3].Expect)
	}
	if s[4].Amount != -3*simtime.Millisecond {
		t.Errorf("backward clockstep amount = %v, want -3ms", s[4].Amount)
	}

	// String renders back into the DSL, which parses to the same script.
	s2, err := ParseScript(s.String(), 3)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s.String(), err)
	}
	if len(s2) != len(s) {
		t.Fatalf("round trip lost faults: %d → %d", len(s), len(s2))
	}
	for i := range s {
		if s[i] != s2[i] {
			t.Errorf("fault %d: %+v != %+v", i, s[i], s2[i])
		}
	}
}

func TestParseScriptSortsByStart(t *testing.T) {
	s, err := ParseScript("delay@5s+1s:1+12ms; crash@1s:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Kind != FaultCrash {
		t.Fatalf("script not sorted by start: %v", s)
	}
}

func TestParseScriptRejects(t *testing.T) {
	for _, spec := range []string{
		"crash@1s:9",             // target out of range
		"crash@1s:0!maybe",       // unknown expectation
		"partition@1s+500ms:0-0", // peer == target
		"partition@1s:0-1",       // no window
		"delay@1s+500ms:0",       // no amount
		"delay@1s+500ms:0+-3ms",  // negative delay
		"clockstep@1s:0+1ms",     // no window
		"reboot@1s:0",            // unknown kind
		"crash:0",                // missing @start
		"crash@1s",               // missing :target
	} {
		if _, err := ParseScript(spec, 3); err == nil {
			t.Errorf("ParseScript(%q) accepted, want error", spec)
		}
	}
}

func TestDefaultExpect(t *testing.T) {
	eps, d2 := 2*simtime.Millisecond, 10*simtime.Millisecond
	cases := []struct {
		f    Fault
		want Outcome
	}{
		{Fault{Kind: FaultCrash}, OutcomeTolerated},
		{Fault{Kind: FaultPartition}, OutcomeFlagged},
		{Fault{Kind: FaultDelay, Amount: 15 * simtime.Millisecond}, OutcomeFlagged},
		{Fault{Kind: FaultDelay, Amount: 5 * simtime.Millisecond}, OutcomeTolerated},
		{Fault{Kind: FaultClockStep, Amount: 3 * simtime.Millisecond}, OutcomeFlagged},
		{Fault{Kind: FaultClockStep, Amount: -3 * simtime.Millisecond}, OutcomeFlagged},
		{Fault{Kind: FaultClockStep, Amount: 1 * simtime.Millisecond}, OutcomeTolerated},
	}
	for _, c := range cases {
		if got := DefaultExpect(c.f, eps, d2); got != c.want {
			t.Errorf("DefaultExpect(%s, %v) = %s, want %s", c.f.Kind, c.f.Amount, got, c.want)
		}
	}
}

// A clock step is an offset, not a span: a backward one reaches the
// daemon's channel with its sign.
func TestPlaneSetClockStepKeepsSign(t *testing.T) {
	p, err := NewPlane(testPlaneConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wire bytes.Buffer
	p.daemons = []*daemonState{{daemon: daemon{ctl: newCtlConn(strings.NewReader(""), &wire)}}}
	p.pol.slots[0].helloed = true
	if err := p.SetClockStep(0, -3*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	e, err := newCtlConn(&wire, io.Discard).recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Fault == nil || !e.Fault.SetStep || e.Fault.StepUS != -3000 {
		t.Errorf("the daemon got %+v, want a step of StepUS -3000", e.Fault)
	}
}

func TestDefaultScriptCoversAllKinds(t *testing.T) {
	eps, d2 := 2*simtime.Millisecond, 10*simtime.Millisecond
	s := DefaultScript(3, eps, d2)
	seen := map[FaultKind]bool{}
	for i, f := range s {
		seen[f.Kind] = true
		if i > 0 && f.Start < s[i-1].Start {
			t.Errorf("script out of order at %d", i)
		}
		if i > 0 {
			prevEnd := s[i-1].Start + s[i-1].Dur
			if f.Start < prevEnd {
				t.Errorf("fault %d (%s@%v) overlaps previous window ending %v", i, f.Kind, f.Start, prevEnd)
			}
		}
	}
	for _, k := range []FaultKind{FaultCrash, FaultPartition, FaultDelay, FaultClockStep} {
		if !seen[k] {
			t.Errorf("default script missing kind %s", k)
		}
	}
}

func TestGenScriptSeededAndValid(t *testing.T) {
	eps, d2 := 2*simtime.Millisecond, 10*simtime.Millisecond
	a := GenScript(7, 3, 6, 12*time.Second, eps, d2)
	b := GenScript(7, 3, 6, 12*time.Second, eps, d2)
	if len(a) != 6 {
		t.Fatalf("generated %d faults, want 6", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, f := range a {
		if f.Target < 0 || f.Target >= 3 {
			t.Errorf("fault %d target %d out of range", i, f.Target)
		}
		if f.Kind == FaultPartition && (f.Peer == f.Target || f.Peer < 0 || f.Peer >= 3) {
			t.Errorf("fault %d bad partition peer %d", i, f.Peer)
		}
		if i > 0 && f.Start <= a[i-1].Start {
			t.Errorf("fault %d not strictly after previous", i)
		}
	}
	// Every kind appears within the first len(kinds) faults.
	seen := map[FaultKind]bool{}
	for _, f := range a[:4] {
		seen[f.Kind] = true
	}
	if len(seen) != 4 {
		t.Errorf("first four generated faults cover %d kinds, want 4", len(seen))
	}
}
