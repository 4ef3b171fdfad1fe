package fleet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"psclock/internal/detector"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// buildNodeBin compiles cmd/pscnode once per test binary.
var nodeBinOnce struct {
	sync.Once
	path string
	err  error
}

func buildNodeBin(t *testing.T) string {
	t.Helper()
	nodeBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pscnode")
		if err != nil {
			nodeBinOnce.err = err
			return
		}
		bin := filepath.Join(dir, "pscnode")
		out, err := osexec.Command("go", "build", "-o", bin, "psclock/cmd/pscnode").CombinedOutput()
		if err != nil {
			nodeBinOnce.err = err
			nodeBinOnce.path = string(out)
			return
		}
		nodeBinOnce.path = bin
	})
	if nodeBinOnce.err != nil {
		t.Fatalf("build pscnode: %v\n%s", nodeBinOnce.err, nodeBinOnce.path)
	}
	return nodeBinOnce.path
}

func testPlaneConfig(bin string) PlaneConfig {
	return PlaneConfig{
		N:           3,
		Registers:   1,
		Eps:         2 * simtime.Millisecond,
		D2:          10 * simtime.Millisecond,
		Delta:       simtime.Millisecond,
		Ell:         5 * simtime.Millisecond,
		Slack:       6 * simtime.Millisecond,
		Seed:        1,
		NodeBin:     bin,
		MaxRestarts: 2,
	}
}

// A three-process fleet comes up, serves client load, survives a SIGKILL
// with an automatic replacement, and shuts down with a merged stream and
// detector evidence of the crash.
func TestFleetCrashReplace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	bin := buildNodeBin(t)
	p, err := NewPlane(testPlaneConfig(bin))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	// Background client load across all nodes while the fault runs.
	stop := make(chan struct{})
	var res live.LoadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = live.RunLoadDynamic(func(client int) (string, ta.NodeID) {
			node := client % 3
			return p.ClientAddr(node), ta.NodeID(node)
		}, live.LoadConfig{
			Clients:    3,
			Duration:   time.Hour, // bounded by Stop
			Rate:       50,
			WriteRatio: 0.5,
			Seed:       1,
			Stop:       stop,
		})
	}()

	time.Sleep(300 * time.Millisecond)
	inc, ok := p.Incarnation(1)
	if !ok {
		t.Error("node 1 has no live incarnation before the kill")
	}
	if err := p.Kill(1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if !p.WaitReplaced(1, inc, 15*time.Second) {
		t.Fatal("node 1 was not replaced after SIGKILL")
	}
	// Let the replacement serve for a while so its incarnation's events
	// reach the merged stream.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	stats := p.Stats()
	v := p.Shutdown()

	if p.Crashes() != 1 {
		t.Errorf("Crashes = %d, want 1", p.Crashes())
	}
	if stats.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", stats.Restarts)
	}
	if rs := stats.Recoveries; len(rs) != 1 || rs[0].Node != 1 || rs[0].Incarnation != inc+1 || rs[0].ReadyMS >= 500 ||
		rs[0].WiredMS <= 0 || rs[0].TransferMS < rs[0].WiredMS || rs[0].ReadyMS < rs[0].TransferMS || rs[0].FromPeer == 1 {
		t.Errorf("Recoveries = %+v, want one timeline for node 1 in order, served by a peer, Ready inside 500 ms", rs)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Errorf("load: ops=%d errors=%d, want ops>0 errors=0", res.Ops, res.Errors)
	}
	if v.Emitted == 0 {
		t.Error("no events reached the merged stream")
	}
	if v.Clamped != 0 {
		t.Errorf("merge clamped %d events; single-host streams should never violate watermarks", v.Clamped)
	}
	// A crash explains checker violations (message loss is outside the
	// delivery model), but the stream contract itself must hold.
	for _, m := range v.Messages {
		if len(m) >= 15 && m[:15] == "stream contract" {
			t.Errorf("stream contract violated: %s", m)
		}
	}
}

// A graceful shutdown with no chaos must produce a clean verdict: no
// violations of any kind and zero crashes.
func TestFleetCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	bin := buildNodeBin(t)
	p, err := NewPlane(testPlaneConfig(bin))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	stop := make(chan struct{})
	time.AfterFunc(1200*time.Millisecond, func() { close(stop) })
	res := live.RunLoadDynamic(func(client int) (string, ta.NodeID) {
		node := client % 3
		return p.ClientAddr(node), ta.NodeID(node)
	}, live.LoadConfig{
		Clients:    3,
		Duration:   time.Hour,
		Rate:       50,
		WriteRatio: 0.5,
		Seed:       2,
		Stop:       stop,
	})
	v := p.Shutdown()
	if len(v.Messages) != 0 {
		t.Errorf("clean run produced violations: %v", v.Messages)
	}
	if p.Crashes() != 0 {
		t.Errorf("Crashes = %d, want 0", p.Crashes())
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Errorf("load: ops=%d errors=%d, want ops>0 errors=0", res.Ops, res.Errors)
	}
}

// startFleet brings a plane up, testPlaneConfig edited by tweaks, or fails
// the test; the caller shuts it down.
func startFleet(t *testing.T, tweaks ...func(*PlaneConfig)) *Plane {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	cfg := testPlaneConfig(buildNodeBin(t))
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	p, err := NewPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	return p
}

// clientOp is one closed-loop operation on register 0 through node's client
// port, in the wire format live.Server speaks: it returns what a read
// returned.
func clientOp(t *testing.T, p *Plane, node int, write *register.Value) register.Value {
	t.Helper()
	conn, err := net.DialTimeout("tcp", p.ClientAddr(node), 5*time.Second)
	if err != nil {
		t.Fatalf("node %d: %v", node, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := []byte{1, 0, 'r'} // id 1, register 0
	if write != nil {
		req[2] = 'w'
		req = binary.AppendVarint(binary.AppendVarint(req, int64(write.Writer)), int64(write.Seq))
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatalf("node %d: %v", node, err)
	}
	br := bufio.NewReader(conn)
	var v register.Value
	if id, err := binary.ReadUvarint(br); err != nil || id != 1 {
		t.Fatalf("node %d: response id %d, %v", node, id, err)
	}
	if op, err := br.ReadByte(); err != nil || (op == 'A') != (write != nil) {
		t.Fatalf("node %d: response op %q, %v", node, op, err)
	} else if op == 'R' {
		w, _ := binary.ReadVarint(br)
		seq, err := binary.ReadVarint(br)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		v = register.Value{Writer: ta.NodeID(w), Seq: int(seq)}
	}
	return v
}

// settle outlasts 2(d'2+δ) of testPlaneConfig's model: a write acknowledged
// before it has been applied at every node after it.
const settle = 2 * (14 + 1) * time.Millisecond

// A value written through node 0 survives the crash of idle node 1: the
// replacement serves it (it copied a live peer's registers; it did not write
// one of its own), and with no operation in flight at the victim the checker
// finds nothing — zero violations, not explained ones.
func TestFleetCrashPreservesValue(t *testing.T) {
	p := startFleet(t)
	want := register.Value{Writer: 0, Seq: 41}
	clientOp(t, p, 0, &want)
	time.Sleep(settle)
	inc, _ := p.Incarnation(1)
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !p.WaitReplaced(1, inc, 15*time.Second) {
		t.Fatal("node 1 was not replaced after SIGKILL")
	}
	if got := clientOp(t, p, 1, nil); got != want {
		t.Errorf("replacement of node 1 reads %v, want the %v written before the crash", got, want)
	}
	time.Sleep(settle)
	if v := p.Shutdown(); v.Violations != 0 {
		t.Errorf("%d violations after a crash with nothing in flight at the victim: %v", v.Violations, v.Messages)
	}
}

// Two nodes are killed together. Each replacement asks its successor first,
// so node 1's asks node 2's — which is no further along and refuses — and
// then the survivor; both come back Ready with the written value, each with
// a recovery timeline naming a peer that could have served it.
func TestFleetOverlappingCrashes(t *testing.T) {
	p := startFleet(t)
	want := register.Value{Writer: 0, Seq: 42}
	clientOp(t, p, 0, &want)
	time.Sleep(settle)
	for _, node := range []int{1, 2} {
		if err := p.Kill(node); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []int{1, 2} {
		if !p.WaitReplaced(node, 0, 15*time.Second) {
			t.Fatalf("node %d was not replaced", node)
		}
		if got := clientOp(t, p, node, nil); got != want {
			t.Errorf("replacement of node %d reads %v, want %v", node, got, want)
		}
	}
	stats := p.Stats()
	if len(stats.Recoveries) != 2 {
		t.Fatalf("Recoveries = %+v, want two", stats.Recoveries)
	}
	for _, r := range stats.Recoveries {
		if r.FromPeer == r.Node || r.FromPeer < 0 {
			t.Errorf("recovery %+v names no serving peer", r)
		}
	}
	time.Sleep(settle)
	if v := p.Shutdown(); v.Violations != 0 {
		t.Errorf("%d violations: %v", v.Violations, v.Messages)
	}
}

// A process that stops without exiting (SIGSTOP: no exit, no EOF, its
// connections stay up) is suspected by its peers' heartbeat detectors while
// its own stream stays silent, and the plane replaces it: within 2τ + d2 of
// the stop plus a second of process start and transfer, serving the value
// written before, as a restart and not a crash, and with the merge running
// again once the frozen stream is let go.
func TestFleetWedgedNodeReplaced(t *testing.T) {
	p := startFleet(t)
	want := register.Value{Writer: 0, Seq: 43}
	clientOp(t, p, 0, &want)
	time.Sleep(settle)
	p.mu.Lock()
	inc, proc := p.pol.slots[1].inc, p.daemons[1].cmd.Process
	p.mu.Unlock()
	stopped := time.Now()
	if err := proc.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	bound := time.Duration(2*p.cfg.DetTimeout+p.cfg.D2) + time.Second
	if !p.WaitReplaced(1, inc, bound) {
		t.Fatalf("node 1 not replaced within %v of its SIGSTOP", bound)
	}
	t.Logf("node 1 replaced %v after its SIGSTOP", time.Since(stopped).Round(time.Millisecond))
	if got := clientOp(t, p, 1, nil); got != want {
		t.Errorf("replacement of node 1 reads %v, want the %v written before the stop", got, want)
	}
	if s := p.Stats(); s.Restarts != 1 || p.Crashes() != 0 {
		t.Errorf("Restarts = %d, Crashes = %d; want 1 and 0", s.Restarts, p.Crashes())
	}
	for _, m := range p.Shutdown().Messages {
		if strings.HasPrefix(m, "stream contract") {
			t.Errorf("stream contract violated: %s", m)
		}
	}
}

// A partitioned node is suspected but keeps streaming, so it is never
// replaced: a cut of 2τ + π between nodes 0 and 1 leaves every incarnation
// as it was and is SUSPECT evidence both ways, with 2 and 3 nodes.
func TestFleetPartitionIsNotACrash(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			p := startFleet(t, func(c *PlaneConfig) { c.N = n })
			tau, pi := time.Duration(p.cfg.DetTimeout), time.Duration(p.cfg.DetPeriod)
			if err := p.SetPartition(0, 1, true); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2*tau + pi)
			if err := p.SetPartition(0, 1, false); err != nil {
				t.Fatal(err)
			}
			time.Sleep(tau)
			s := p.Stats()
			for i := 0; i < n; i++ {
				if inc, ready := p.Incarnation(i); inc != 0 || !ready {
					t.Errorf("node %d: incarnation %d ready=%v, want 0 and ready", i, inc, ready)
				}
			}
			p.Shutdown()
			if s.Restarts != 0 {
				t.Errorf("Restarts = %d, want 0", s.Restarts)
			}
			var suspected [2]int
			for _, e := range s.DetEvents {
				if e.Name == detector.ActSuspect && e.Observer+e.Peer == 1 { // 0→1 or 1→0
					suspected[e.Observer]++
				}
			}
			if suspected[0] == 0 || suspected[1] == 0 {
				t.Errorf("SUSPECTs 0→1 %d, 1→0 %d; want at least one each way", suspected[0], suspected[1])
			}
		})
	}
}

// Every per-node call of the plane answers for a node it has no slot for —
// any node before Start, node N after — instead of indexing past its slots:
// Kill and the fault setters with an error naming the node, ClientAddr with
// "", Incarnation with (0, false), WaitReplaced with false at once.
func TestPlaneUnknownNode(t *testing.T) {
	probe := func(t *testing.T, p *Plane, node int) {
		t.Helper()
		for name, err := range map[string]error{
			"Kill":         p.Kill(node),
			"SetPartition": p.SetPartition(0, node, true),
			"SetDelay":     p.SetDelay(node, simtime.Millisecond),
			"SetClockStep": p.SetClockStep(node, simtime.Millisecond),
		} {
			if want := fmt.Sprintf("node %d", node); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s at node %d: %v, want an error naming %s", name, node, err, want)
			}
		}
		if addr := p.ClientAddr(node); addr != "" {
			t.Errorf("ClientAddr(%d) = %q, want \"\"", node, addr)
		}
		if inc, ready := p.Incarnation(node); inc != 0 || ready {
			t.Errorf("Incarnation(%d) = %d, %v; want 0, false", node, inc, ready)
		}
		if p.WaitReplaced(node, -1, time.Second) {
			t.Errorf("WaitReplaced(%d) = true", node)
		}
	}
	unstarted, err := NewPlane(testPlaneConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer unstarted.Close()
	probe(t, unstarted, 0)
	t.Run("started", func(t *testing.T) {
		p := startFleet(t)
		defer p.Shutdown()
		probe(t, p, p.cfg.N)
	})
}

// Only a kill that lands is a crash. With one restart allowed, node 1 is
// replaced after the first kill and given up on after the second; a third
// Kill finds no process, fails, and is not counted.
func TestFleetKillCountsOnlyLandedKills(t *testing.T) {
	p := startFleet(t, func(c *PlaneConfig) { c.MaxRestarts = 1 })
	defer p.Shutdown()
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !p.WaitReplaced(1, 0, 15*time.Second) {
		t.Fatal("node 1 was not replaced after the first kill")
	}
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !givenUp(t, p, 1, 1) {
		t.Fatal("node 1 was not given up on after its one restart")
	}
	if err := p.Kill(1); err == nil {
		t.Error("Kill of a node given up on succeeded")
	}
	if got := p.Crashes(); got != 2 {
		t.Errorf("Crashes = %d, want 2", got)
	}
}

// givenUp waits out WaitReplaced(node, minInc) with a 15 s timeout, which
// must say false within 5 s of the kill that leaves node down, and reports
// whether the plane gave up on node.
func givenUp(t *testing.T, p *Plane, node, minInc int) bool {
	t.Helper()
	start := time.Now()
	if p.WaitReplaced(node, minInc, 15*time.Second) {
		t.Fatalf("node %d was replaced", node)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("WaitReplaced(%d) slept %v, want false within 5s of the plane giving up", node, waited.Round(time.Millisecond))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pol.slots[node].gone
}

// A replacement that cannot be started does not strand its slot: with the
// node binary deleted after Start, the first kill of node 1 is served by
// the spare already running, and the second, which needs a cold start, ends
// in the plane giving up on node 1 at once, so WaitReplaced says false well
// inside its timeout and a third Kill is refused as given up on.
func TestFleetFailedRespawnGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short")
	}
	elf, err := os.ReadFile(buildNodeBin(t))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "pscnode")
	if err := os.WriteFile(bin, elf, 0o755); err != nil {
		t.Fatal(err)
	}
	p := startFleet(t, func(c *PlaneConfig) { c.NodeBin = bin })
	defer p.Shutdown()
	sparePid(t, p, 0)
	if err := os.Remove(bin); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !p.WaitReplaced(1, 0, 15*time.Second) {
		t.Fatal("node 1 was not replaced by the spare")
	}
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !givenUp(t, p, 1, 1) {
		t.Error("node 1 was not given up on after its respawn failed")
	}
	if err := p.Kill(1); err == nil || !strings.Contains(err.Error(), "given up on") {
		t.Errorf("third Kill(1): %v, want an error saying node 1 was given up on", err)
	}
}

// sparePid waits for the plane's spare to be in place as a process other
// than pid not, and returns its pid.
func sparePid(t *testing.T, p *Plane, not int) int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		p.mu.Lock()
		d := p.spare
		p.mu.Unlock()
		if d != nil && d.cmd.Process.Pid != not {
			return d.cmd.Process.Pid
		}
	}
	t.Fatal("no spare in place within 10s")
	return 0
}

// exited waits until process pid has exited and is a zombie its parent has
// not reaped yet.
func exited(t *testing.T, pid int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			t.Fatal(err)
		}
		if state := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:])); state[0] == "Z" {
			return
		}
	}
	t.Fatalf("pid %d still runs 10s after its SIGKILL", pid)
}

// The plane keeps one pscnode started and waiting for its Config. A crash's
// replacement is that process, and once the replacement is Ready a new
// spare is in place; a spare killed before it is used gives way to a cold
// start, with no restart spent on it; and Close leaves no spare unreaped.
func TestFleetSpare(t *testing.T) {
	p := startFleet(t)
	defer p.Close()
	pid := func(node int) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.daemons[node].cmd.Process.Pid
	}

	spare := sparePid(t, p, 0)
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !p.WaitReplaced(1, 0, 15*time.Second) {
		t.Fatal("node 1 was not replaced after its first kill")
	}
	if got := pid(1); got != spare {
		t.Errorf("node 1's replacement runs as pid %d, want the spare's pid %d", got, spare)
	}

	dead := sparePid(t, p, spare)
	if err := syscall.Kill(dead, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	exited(t, dead)
	if err := p.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !p.WaitReplaced(1, 1, 15*time.Second) {
		t.Fatal("node 1 was not replaced after its spare died unused")
	}
	if got := p.Stats().Restarts; got != 2 {
		t.Errorf("Restarts = %d after two kills, want 2", got)
	}

	last := sparePid(t, p, dead)
	p.Close()
	if err := syscall.Kill(last, 0); err != syscall.ESRCH {
		t.Errorf("spare pid %d after Close: kill(pid, 0) = %v, want ESRCH (reaped)", last, err)
	}
}
