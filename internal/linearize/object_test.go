package linearize

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// regModel mirrors the object package's register spec, declared locally so
// the checker package stays dependency-free.
type regModel struct{}

func (regModel) Name() string { return "register" }
func (regModel) Init() string { return "v0" }
func (regModel) Apply(state, op string) (string, string) {
	if v, ok := strings.CutPrefix(op, "write:"); ok {
		return v, ""
	}
	return state, state // read
}

type cntModel struct{}

func (cntModel) Name() string { return "counter" }
func (cntModel) Init() string { return "0" }
func (cntModel) Apply(state, op string) (string, string) {
	cur, _ := strconv.Atoi(state)
	if ks, ok := strings.CutPrefix(op, "add:"); ok {
		k, _ := strconv.Atoi(ks)
		return strconv.Itoa(cur + k), ""
	}
	return state, state // get
}

// call is one Call op: the operation text op with observed result.
func call(node int, op, result string, inv, res simtime.Time) Op {
	return Op{Node: ta.NodeID(node), Kind: Call, Value: op, Result: result, Inv: inv, Res: res}
}

func TestGenericSequentialCounter(t *testing.T) {
	ops := []Op{
		call(0, "add:2", "", 0, 10),
		call(1, "get", "2", 20, 30),
		call(0, "add:3", "", 40, 50),
		call(1, "get", "5", 60, 70),
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
}

func TestGenericCounterViolation(t *testing.T) {
	// get=2 strictly after both adds completed must be 5.
	ops := []Op{
		call(0, "add:2", "", 0, 10),
		call(0, "add:3", "", 20, 30),
		call(1, "get", "2", 40, 50),
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); r.OK {
		t.Fatal("stale counter read accepted")
	}
}

func TestGenericCounterConcurrentAdds(t *testing.T) {
	// A get overlapping two adds may see 0, 2, 3 or 5.
	for _, want := range []string{"0", "2", "3", "5"} {
		ops := []Op{
			call(0, "add:2", "", 0, 100),
			call(1, "add:3", "", 0, 100),
			call(2, "get", want, 50, 60),
		}
		if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); !r.OK {
			t.Errorf("get=%s rejected: %s", want, r.Reason)
		}
	}
	// But never 4.
	ops := []Op{
		call(0, "add:2", "", 0, 100),
		call(1, "add:3", "", 0, 100),
		call(2, "get", "4", 50, 60),
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); r.OK {
		t.Error("impossible counter value accepted")
	}
}

func TestGenericPendingUpdate(t *testing.T) {
	// A pending add may or may not have taken effect.
	for _, want := range []string{"0", "7"} {
		ops := []Op{
			call(0, "add:7", "", 0, simtime.Never),
			call(1, "get", want, 100, 110),
		}
		if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); !r.OK {
			t.Errorf("get=%s with pending add rejected: %s", want, r.Reason)
		}
	}
	// A pending query returned nothing, so it constrains nothing.
	ops := []Op{
		call(0, "add:7", "", 0, 10),
		call(1, "get", "", 20, simtime.Never),
		call(2, "get", "7", 30, 40),
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); !r.OK {
		t.Errorf("pending get rejected: %s", r.Reason)
	}
	// A pending add cannot take effect before its invocation.
	ops = []Op{
		call(0, "add:7", "", 100, simtime.Never),
		call(1, "get", "7", 10, 20),
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0"}); r.OK {
		t.Error("effect before invocation accepted")
	}
}

func TestGenericSuperAndWiden(t *testing.T) {
	ops := []Op{call(0, "get", "0", 100, 110)}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0", MinAfterInv: 20}); r.OK {
		t.Error("window shorter than MinAfterInv accepted")
	}
	if r := CheckObject(ops, cntModel{}, Options{Initial: "0", MinAfterInv: 20, Widen: 15}); !r.OK {
		t.Error("widened window rejected")
	}
}

// Cross-validation: the engine's Call path over the register model must
// agree with its Read/Write path on random histories.
func TestGenericAgreesWithRegisterChecker(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(5)
		values := []string{"v0"}
		var rops []Op
		var gops []Op
		for i := 0; i < n; i++ {
			inv := simtime.Time(r.Intn(50))
			res := inv.Add(simtime.Duration(1 + r.Intn(30)))
			if r.Intn(2) == 0 {
				v := fmt.Sprintf("w%d", i)
				values = append(values, v)
				rops = append(rops, Op{Node: ta.NodeID(i % 3), Kind: Write, Value: v, Inv: inv, Res: res})
				gops = append(gops, call(i%3, "write:"+v, "", inv, res))
			} else {
				v := values[r.Intn(len(values))]
				rops = append(rops, Op{Node: ta.NodeID(i % 3), Kind: Read, Value: v, Inv: inv, Res: res})
				gops = append(gops, call(i%3, "read", v, inv, res))
			}
		}
		want := CheckLinearizable(rops, "v0")
		got := CheckObject(gops, regModel{}, Options{Initial: "v0"})
		if want.OK != got.OK {
			t.Fatalf("trial %d: register=%v generic=%v for:\n%v", trial, want.OK, got.OK, rops)
		}
	}
}

func TestGenericStateBudget(t *testing.T) {
	var ops []Op
	for i := 0; i < 18; i++ {
		ops = append(ops, call(i, fmt.Sprintf("add:%d", i+1), "", 0, 1000))
	}
	ops = append(ops, call(20, "get", "-1", 2000, 2010))
	r := CheckObject(ops, cntModel{}, Options{Initial: "0", MaxStates: 500})
	if r.OK {
		t.Error("impossible history accepted")
	}
}

func TestGenericLongSequentialFast(t *testing.T) {
	var ops []Op
	total := 0
	ts := simtime.Time(0)
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			total += 2
			ops = append(ops, call(i%5, "add:2", "", ts, ts+10))
		} else {
			ops = append(ops, call(i%5, "get", strconv.Itoa(total), ts, ts+10))
		}
		ts += 20
	}
	r := CheckObject(ops, cntModel{}, Options{Initial: "0"})
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
}

func TestCallOpString(t *testing.T) {
	if got, want := call(1, "get", "3", 0, 5).String(), `n1 get="3" [0s, 5ns]`; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if !call(0, "x", "", 0, simtime.Never).Pending() {
		t.Error("Pending() false")
	}
}
