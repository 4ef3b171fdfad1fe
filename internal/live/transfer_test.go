package live

import (
	"strings"
	"testing"
	"time"

	"psclock/internal/register"
	"psclock/internal/ta"
)

// meshNode is one node of a three-node fleet in miniature: a runtime
// hosting node id alone over its own mesh endpoint, the way a pscnode does.
type meshNode struct {
	id      ta.NodeID
	mesh    *MeshTransport
	rt      *Runtime
	outputs chan wireResp // where this node tells its responses
}

var transferModel = Model{Eps: 500 * us, D2: 4 * ms, Delta: 100 * us, Ell: 5 * ms}

func startMeshNode(t *testing.T, id int, epoch time.Time, replacement bool) *meshNode {
	t.Helper()
	mesh, err := NewMeshTransport(id, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Options{
		N: 3, Registers: 2, Bounds: transferModel.Bounds(), Transport: mesh, Local: []int{id}, Epoch: epoch,
	}, register.Factory(register.NewS, transferModel.Params()))
	if err != nil {
		t.Fatal(err)
	}
	n := &meshNode{id: ta.NodeID(id), mesh: mesh, rt: rt, outputs: make(chan wireResp, 1)}
	if replacement {
		rt.Recovering()
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Stop() })
	return n
}

// wire tells every node where every other one listens, as the plane's
// announcement does.
func wire(nodes ...*meshNode) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.mesh.SetPeer(int(b.id), b.mesh.Addr(int(b.id)))
			}
		}
	}
}

func (n *meshNode) do(t *testing.T, reg int, op string, payload any) register.Value {
	t.Helper()
	if err := n.rt.invoke(n.id, invocation{reg: reg, name: op, payload: payload, to: n.outputs}); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-n.outputs:
		return resp.Val // zero for an ACK
	case <-time.After(10 * time.Second):
		t.Fatalf("node %v: no response to %s", n.id, op)
		return register.Value{}
	}
}

func (n *meshNode) recoverFrom(t *testing.T, peers ...ta.NodeID) Transfer {
	t.Helper()
	select {
	case tr := <-n.rt.Recover(n.id, peers, transferModel.TransferWait()):
		return tr
	case <-time.After(10 * time.Second):
		t.Fatalf("node %v: Recover from %v never finished", n.id, peers)
		return Transfer{}
	}
}

// TestTransferRecovery: two of three nodes are lost together after a write.
// The first replacement asks the other replacement, is refused (it has
// nothing to give), asks the survivor and restores the written value; a
// replacement offered no peer, or only a peer that is itself recovering,
// reports why and stays a node that refuses; and a restored replacement
// serves the next one.
func TestTransferRecovery(t *testing.T) {
	epoch := time.Now()
	old := []*meshNode{startMeshNode(t, 0, epoch, false), startMeshNode(t, 1, epoch, false), startMeshNode(t, 2, epoch, false)}
	wire(old...)
	want := register.Value{Writer: 0, Seq: 7}
	old[0].do(t, 1, register.ActWrite, want)
	time.Sleep(raceScale * 10 * time.Millisecond) // d'2 + δ: applied everywhere
	if got := old[2].do(t, 1, register.ActRead, nil); got != want {
		t.Fatalf("before the crash node 2 reads %v, want %v", got, want)
	}
	old[1].rt.Stop()
	old[2].rt.Stop()

	n0 := old[0]
	n1, n2 := startMeshNode(t, 1, epoch, true), startMeshNode(t, 2, epoch, true)
	wire(n0, n1, n2)

	if tr := n2.recoverFrom(t); tr.Err == nil {
		t.Fatal("a replacement with no peer to ask reported a transfer")
	}
	if tr := n2.recoverFrom(t, 1); tr.Err == nil || !strings.Contains(tr.Err.Error(), "itself recovering") {
		t.Fatalf("asking only a replacement that has not restored: %+v, want a refusal named in the error", tr)
	}

	tr := n1.recoverFrom(t, 2, 0)
	if tr.Err != nil || tr.From != 0 {
		t.Fatalf("recover from [2 0] = %+v, want node 2 refusing and node 0 serving", tr)
	}
	if tr.Applied.Sub(tr.Wired) < transferModel.TransferWait() {
		t.Fatalf("copy applied %v after W, before the %v transfer wait was out", tr.Applied.Sub(tr.Wired), transferModel.TransferWait())
	}
	if got := n1.do(t, 1, register.ActRead, nil); got != want {
		t.Fatalf("after the transfer node 1 reads %v, want %v", got, want)
	}
	if got := n1.do(t, 0, register.ActRead, nil); got != register.Initial {
		t.Fatalf("register 0 was never written: node 1 reads %v", got)
	}

	if tr := n2.recoverFrom(t, 1, 0); tr.Err != nil || tr.From != 1 {
		t.Fatalf("recover from [1 0] = %+v, want the restored node 1 serving", tr)
	}
	if got := n2.do(t, 1, register.ActRead, nil); got != want {
		t.Fatalf("after the transfer node 2 reads %v, want %v", got, want)
	}
}
