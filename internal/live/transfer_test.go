package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

var transferModel = Model{Eps: 500 * us, D2: 4 * ms, Delta: 100 * us, Ell: 50 * us, Slack: 100 * us}

// transferNodes is a three-node store of two registers on the driver, as a
// fleet of three daemons in miniature: do runs one operation to its
// response, recoverFrom one Recover to its outcome.
type transferNodes struct {
	t  *testing.T
	rt *Runtime
	d  *simDriver
}

func (s transferNodes) do(node ta.NodeID, reg int, op string, payload any) register.Value {
	s.t.Helper()
	resp := make(chan wireResp, 1)
	if err := s.rt.invoke(node, invocation{reg: reg, name: op, payload: payload, to: resp}); err != nil {
		s.t.Fatal(err)
	}
	if !s.d.run(s.d.now.Add(simtime.Second), func() bool { return len(resp) > 0 }) {
		s.t.Fatalf("node %v: no response to %s", node, op)
	}
	return (<-resp).Val // zero for an ACK
}

func (s transferNodes) recoverFrom(node ta.NodeID, peers ...ta.NodeID) Transfer {
	s.t.Helper()
	done := s.rt.Recover(node, peers, transferModel.TransferWait())
	if !s.d.run(s.d.now.Add(simtime.Second), func() bool { return len(done) > 0 }) {
		s.t.Fatalf("node %v: Recover from %v never finished", node, peers)
	}
	return <-done
}

// TestTransferRecovery: two of three nodes are lost together after a write.
// The first replacement asks the other replacement, is refused (it has
// nothing to give), asks the survivor and restores the written value; a
// replacement offered no peer, or only a peer that is itself recovering,
// reports why and stays a node that refuses; and a restored replacement
// serves the next one. The transfer runs over control frames, as on a
// fleet's mesh.
func TestTransferRecovery(t *testing.T) {
	rt, err := New(Options{N: 3, Registers: 2, Bounds: transferModel.Bounds()},
		register.Factory(register.NewS, transferModel.Params()))
	if err != nil {
		t.Fatal(err)
	}
	s := transferNodes{t: t, rt: rt, d: newSimDriver(t, rt, transferModel, 1)}
	want := register.Value{Writer: 0, Seq: 7}
	s.do(0, 1, register.ActWrite, want)
	s.d.run(s.d.now.Add(transferModel.Params().D2+transferModel.Delta), nil) // applied everywhere
	if got := s.do(2, 1, register.ActRead, nil); got != want {
		t.Fatalf("before the crash node 2 reads %v, want %v", got, want)
	}
	s.d.replace(1, 2)

	if tr := s.recoverFrom(2); tr.Err == nil {
		t.Fatal("a replacement with no peer to ask reported a transfer")
	}
	if tr := s.recoverFrom(2, 1); tr.Err == nil || !strings.Contains(tr.Err.Error(), "itself recovering") {
		t.Fatalf("asking only a replacement that has not restored: %+v, want a refusal named in the error", tr)
	}

	tr := s.recoverFrom(1, 2, 0)
	if tr.Err != nil || tr.From != 0 {
		t.Fatalf("recover from [2 0] = %+v, want node 2 refusing and node 0 serving", tr)
	}
	if tr.Applied.Sub(tr.Wired) < transferModel.TransferWait() {
		t.Fatalf("copy applied %v after W, before the %v transfer wait was out", tr.Applied.Sub(tr.Wired), transferModel.TransferWait())
	}
	if got := s.do(1, 1, register.ActRead, nil); got != want {
		t.Fatalf("after the transfer node 1 reads %v, want %v", got, want)
	}
	if got := s.do(1, 0, register.ActRead, nil); got != register.Initial {
		t.Fatalf("register 0 was never written: node 1 reads %v", got)
	}

	if tr := s.recoverFrom(2, 1, 0); tr.Err != nil || tr.From != 1 {
		t.Fatalf("recover from [1 0] = %+v, want the restored node 1 serving", tr)
	}
	if got := s.do(2, 1, register.ActRead, nil); got != want {
		t.Fatalf("after the transfer node 2 reads %v, want %v", got, want)
	}
	if env := transferModel.Envelope(s.d.finish()); env != "held" {
		t.Fatalf("driver run left the model: %s", env)
	}
}

// TestTransferUnknownNode: Recover at a node the runtime cannot serve —
// before Start, past N, or hosted by another process, as every node but
// one is for a fleet daemon — answers with an error naming the node.
func TestTransferUnknownNode(t *testing.T) {
	mesh, err := NewMeshTransport(0, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Options{
		N: 3, Bounds: transferModel.Bounds(), Transport: mesh,
	}, register.Factory(register.NewS, transferModel.Params()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, node ta.NodeID) {
		t.Helper()
		select {
		case tr := <-rt.Recover(node, []ta.NodeID{0}, transferModel.TransferWait()):
			if tr.Err == nil || !strings.Contains(tr.Err.Error(), fmt.Sprintf("node %v", node)) {
				t.Fatalf("%s: Recover(%v) = %+v, want an error naming the node", when, node, tr)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Recover(%v) never answered", when, node)
		}
	}
	check("before Start", 0)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Stop() })
	check("past N", 3)
	check("not hosted", 1)
}
