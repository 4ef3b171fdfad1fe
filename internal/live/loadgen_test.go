package live

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"psclock/internal/register"
	"psclock/internal/ta"
)

// fakeServer speaks the client wire protocol on one listener, answering
// at once, so the tests below can script what a client sees: how many
// operations are answered before the connection is severed, and whether a
// second request ever arrives while one is unanswered.
type fakeServer struct {
	ln net.Listener
	// severAfter ≥ 0: answer that many requests, leave the next one (and
	// whatever is pipelined behind it) unanswered, then close the
	// connection and the listener — a SIGKILLed node.
	severAfter int
	// probe: before answering, wait this long for a second request; one
	// arriving means two operations were open at once.
	probe time.Duration

	mu       sync.Mutex
	conns    int // connections accepted
	answered int
	overlaps int
	writes   []register.Value
	done     chan struct{} // closed when the server has severed
}

func startFakeServer(t *testing.T, severAfter int, probe time.Duration) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{ln: ln, severAfter: severAfter, probe: probe, done: make(chan struct{})}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return s
}

func (s *fakeServer) addr() string { return s.ln.Addr().String() }

func (s *fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		req, err := readWireReq(br)
		if err != nil {
			return
		}
		s.mu.Lock()
		if req.Op == register.ActWrite {
			s.writes = append(s.writes, req.Val)
		}
		sever := s.answered == s.severAfter
		s.mu.Unlock()
		if sever {
			time.Sleep(20 * time.Millisecond) // let the pipeline pile up behind it
			s.ln.Close()
			conn.Close()
			close(s.done)
			return
		}
		if s.probe > 0 {
			conn.SetReadDeadline(time.Now().Add(s.probe))
			if _, err := br.Peek(1); err == nil {
				s.mu.Lock()
				s.overlaps++
				s.mu.Unlock()
			}
			conn.SetReadDeadline(time.Time{})
		}
		resp := wireResp{ID: req.ID, Op: register.ActAck}
		if req.Op == register.ActRead {
			resp.Op = register.ActReturn
		}
		buf = appendWireResp(buf[:0], resp)
		s.mu.Lock()
		s.answered++
		s.mu.Unlock()
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

func (s *fakeServer) counts() (answered, overlaps int, writes []register.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.answered, s.overlaps, append([]register.Value(nil), s.writes...)
}

// TestLoadClosedLoopOneOpOpen is §6.1's client seen from the server: with
// Pipeline ≤ 1 a connection never carries a second request while one is
// unanswered. The pipelined control shows the probe can see an overlap.
func TestLoadClosedLoopOneOpOpen(t *testing.T) {
	for _, c := range []struct {
		pipeline    int
		wantOverlap bool
	}{{0, false}, {1, false}, {4, true}} {
		s := startFakeServer(t, -1, 2*time.Millisecond)
		res := RunLoad([]string{s.addr()}, LoadConfig{
			Clients: 1, Duration: 150 * time.Millisecond, WriteRatio: 0.3, Pipeline: c.pipeline, Seed: 3,
		})
		answered, overlaps, _ := s.counts()
		if res.Errors != 0 || res.Ops == 0 || res.Ops != answered {
			t.Fatalf("pipeline %d: %d ops, %d errors, server answered %d", c.pipeline, res.Ops, res.Errors, answered)
		}
		if got := overlaps > 0; got != c.wantOverlap {
			t.Fatalf("pipeline %d: server saw %d requests arrive while one was open", c.pipeline, overlaps)
		}
	}
}

// TestLoadPacedTail is the pacing rule at the end of a run: a client whose
// next scheduled issue falls past the deadline is done. It does not redial
// and issue unpaced until the wall clock catches up, under either wrapper.
func TestLoadPacedTail(t *testing.T) {
	cfg := LoadConfig{Clients: 1, Duration: 500 * time.Millisecond, Rate: 5, WriteRatio: 0.5, Seed: 9}
	for _, depth := range []int{1, 4} {
		for _, follow := range []bool{false, true} {
			s := startFakeServer(t, -1, 0)
			cfg.Pipeline = depth
			var res LoadResult
			if follow {
				res = RunLoadDynamic(func(int) (string, ta.NodeID) { return s.addr(), 0 }, cfg)
			} else {
				res = RunLoad([]string{s.addr()}, cfg)
			}
			s.mu.Lock()
			conns := s.conns
			s.mu.Unlock()
			// Issues at 0, 200 and 400 ms; the one scheduled for 600 ms is past
			// the deadline. A stalled host can only lose issues, not add them.
			if res.Errors != 0 || res.Ops == 0 || res.Ops > 3 || conns != 1 {
				t.Fatalf("depth %d follow %v: %d ops (rate allows 3) over %d connections, %d errors",
					depth, follow, res.Ops, conns, res.Errors)
			}
		}
	}
}

// TestLoadFollowsRestart severs a client's connection mid-run and brings
// its node back on a new port. A resolver-following client, closed-loop
// or pipelined, redials and carries on: the operations it had in flight
// are neither counted nor timed, nothing is an error, and it never reuses
// a written value. The same break under static RunLoad is an error.
func TestLoadFollowsRestart(t *testing.T) {
	const severAfter = 40
	for _, depth := range []int{1, 8} {
		old := startFakeServer(t, severAfter, 0)
		repl := startFakeServer(t, -1, 0)
		// The node's address moves to the replacement once the old server
		// is gone, the way the plane republishes a restarted node.
		res := RunLoadDynamic(func(int) (string, ta.NodeID) {
			select {
			case <-old.done:
				return repl.addr(), 0
			default:
				return old.addr(), 0
			}
		}, LoadConfig{
			Clients: 1, Duration: 400 * time.Millisecond, Rate: 2000, WriteRatio: 0.5, Pipeline: depth, Seed: 5,
		})
		a1, _, w1 := old.counts()
		a2, _, w2 := repl.counts()
		if a1 != severAfter || a2 == 0 {
			t.Fatalf("depth %d: servers answered %d then %d, want %d then some", depth, a1, a2, severAfter)
		}
		if res.Errors != 0 {
			t.Fatalf("depth %d: %d errors; a followed restart is not one", depth, res.Errors)
		}
		if res.Ops != a1+a2 {
			t.Fatalf("depth %d: counted %d ops, servers answered %d+%d: severed ops must not count", depth, res.Ops, a1, a2)
		}
		if timed := res.ReadLat.N + res.WriteLat.N; timed != res.Ops {
			t.Fatalf("depth %d: timed %d of %d ops", depth, timed, res.Ops)
		}
		if res.Late.N != res.Ops {
			t.Fatalf("depth %d: lateness recorded for %d of %d ops", depth, res.Late.N, res.Ops)
		}
		seen := map[register.Value]bool{}
		for _, v := range append(w1, w2...) {
			if seen[v] {
				t.Fatalf("depth %d: value %v written twice (§3 uniqueness)", depth, v)
			}
			seen[v] = true
		}
	}

	// Static: the same severed connection ends the client with an error,
	// and what was answered before it still counts.
	s := startFakeServer(t, severAfter, 0)
	res := RunLoad([]string{s.addr()}, LoadConfig{Clients: 1, Duration: 2 * time.Second, WriteRatio: 0.5, Pipeline: 8, Seed: 5})
	if res.Errors == 0 {
		t.Fatal("static RunLoad did not report the broken connection")
	}
	if res.Ops != severAfter {
		t.Fatalf("static RunLoad counted %d ops, server answered %d", res.Ops, severAfter)
	}
}
