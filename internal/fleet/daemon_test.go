package fleet

import (
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
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
// with both addresses, is Ready once told its (absent) peer, and drains to
// a Bye on interrupt.
func TestDaemonOverChannel(t *testing.T) {
	ctl, interrupt, done := startDaemon(t)
	cfg := DaemonConfig{Node: 0, N: 2, Registers: 1, Epoch: time.Now(), Model: DefaultModel()}
	if err := ctl.send(envelope{Config: &cfg}); err != nil {
		t.Fatal(err)
	}
	h := expect(t, ctl, "Hello").Hello
	if h.NodeAddr == "" || h.ClientAddr == "" {
		t.Fatalf("Hello %+v, want both addresses", h)
	}
	if err := ctl.send(envelope{Peers: &msgPeers{Addrs: []string{h.NodeAddr, ""}}}); err != nil {
		t.Fatal(err)
	}
	expect(t, ctl, "Ready")
	interrupt <- os.Interrupt
	expect(t, ctl, "Bye")
	if err := <-done; err != nil {
		t.Fatalf("RunDaemon after Bye: %v", err)
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
