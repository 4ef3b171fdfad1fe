package fleet

import (
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"psclock/internal/live"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// startDaemon runs RunDaemon in this process on one end of a net.Pipe and
// returns the other end, for the test to play the plane on, with the
// daemon's interrupt and what RunDaemon returns.
func startDaemon(t *testing.T) (*ctlConn, chan<- os.Signal, <-chan error) {
	t.Helper()
	plane, daemon := net.Pipe()
	plane.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { plane.Close() })
	interrupt := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- RunDaemon(daemon, daemon, interrupt, io.Discard) }()
	return newCtlConn(plane, plane), interrupt, done
}

// expect reads the channel past beats and event batches to the next other
// message, which must be a kind.
func expect(t *testing.T, ctl *ctlConn, kind string) envelope {
	t.Helper()
	for {
		e, err := ctl.recv()
		if err != nil {
			t.Fatalf("waiting for %s: %v", kind, err)
		}
		if e.Beat == nil && e.Events == nil {
			if e.kind() != kind {
				t.Fatalf("got %s, want %s", e.kind(), kind)
			}
			return e
		}
	}
}

// A daemon runs over any reader and writer: given its Config it says Hello
// with its mesh address, is Ready with its client address once told its
// (absent) peer, and drains to a Bye on interrupt.
func TestDaemonOverChannel(t *testing.T) {
	ctl, interrupt, done := startDaemon(t)
	cfg := DaemonConfig{Node: 0, N: 2, Registers: 1, Epoch: time.Now(), Model: DefaultModel()}
	if err := ctl.send(envelope{Config: &cfg}); err != nil {
		t.Fatal(err)
	}
	h := expect(t, ctl, "Hello").Hello
	if h.NodeAddr == "" {
		t.Fatalf("Hello %+v, want the mesh address", h)
	}
	if err := ctl.send(envelope{Peers: &msgPeers{Addrs: []string{h.NodeAddr, ""}}}); err != nil {
		t.Fatal(err)
	}
	if r := expect(t, ctl, "Ready").Ready; r.ClientAddr == "" {
		t.Fatalf("Ready %+v, want the client address", r)
	}
	interrupt <- os.Interrupt
	expect(t, ctl, "Bye")
	if err := <-done; err != nil {
		t.Fatalf("RunDaemon after Bye: %v", err)
	}
}

// A daemon ships every event it recorded before it says Bye: the tail of
// the stream leaves with the recorder's final flush, the last watermark
// covers the last stamp, and every invocation arrives with its response.
// The plane stops reading while the load runs, so each send blocks and the
// load's events wait in the recorder until after the interrupt: only the
// final flush can ship them.
func TestDaemonShipsEveryEventBeforeBye(t *testing.T) {
	ctl, interrupt, done := startDaemon(t)
	cfg := DaemonConfig{Node: 0, N: 2, Registers: 1, Epoch: time.Now(), Model: DefaultModel()}
	if err := ctl.send(envelope{Config: &cfg}); err != nil {
		t.Fatal(err)
	}
	h := expect(t, ctl, "Hello").Hello
	if err := ctl.send(envelope{Peers: &msgPeers{Addrs: []string{h.NodeAddr, ""}}}); err != nil {
		t.Fatal(err)
	}
	r := expect(t, ctl, "Ready").Ready

	res := live.RunLoad([]string{r.ClientAddr}, live.LoadConfig{
		Clients: 1, Duration: 300 * time.Millisecond, Rate: 100, WriteRatio: 0.5, Seed: 1,
	})
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("load: %d ops, %d errors", res.Ops, res.Errors)
	}
	interrupt <- os.Interrupt
	// Reading on only once the teardown has reached the recorder's final
	// flush is what makes a daemon without one lose the load's events; a
	// daemon with one passes however long this wait is.
	time.Sleep(200 * time.Millisecond)

	var events []wireEvent
	var last simtime.Time
	for {
		e, err := ctl.recv()
		if err != nil {
			t.Fatalf("waiting for Bye: %v", err)
		}
		if e.Events != nil {
			events = append(events, e.Events.Events...)
			last = e.Events.Watermark
		}
		if e.Bye != nil {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("RunDaemon after Bye: %v", err)
	}

	open := map[ta.NodeID]bool{}
	inputs := 0
	for _, e := range events {
		switch e.Action.Kind {
		case ta.KindInput:
			open[e.Action.Node] = true
			inputs++
		case ta.KindOutput:
			delete(open, e.Action.Node)
		}
	}
	if inputs != res.Ops {
		t.Errorf("%d invocations shipped before Bye, want the %d operations the client completed", inputs, res.Ops)
	}
	if len(open) != 0 {
		t.Errorf("invocations without their response before Bye at ports %v", open)
	}
	if n := len(events); n > 0 && last < events[n-1].At {
		t.Errorf("last watermark %v is below the last stamp %v", last, events[n-1].At)
	}
}

// The configuration comes first: a daemon whose channel opens with anything
// else refuses it, naming what it got.
func TestDaemonNeedsConfigFirst(t *testing.T) {
	ctl, _, done := startDaemon(t)
	if err := ctl.send(envelope{Shutdown: &msgShutdown{}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "Shutdown") {
		t.Fatalf("RunDaemon = %v, want an error naming the Shutdown it got first", err)
	}
}

// A daemon whose channel ends before its configuration — an unused spare
// when the plane goes — ends without an error and without a word.
func TestDaemonChannelEndsBeforeConfig(t *testing.T) {
	var out, stderr strings.Builder
	if err := RunDaemon(strings.NewReader(""), &out, nil, &stderr); err != nil {
		t.Errorf("RunDaemon = %v, want nil", err)
	}
	if out.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("RunDaemon wrote %q to its channel and %q to stderr, want nothing", out.String(), stderr.String())
	}
}
