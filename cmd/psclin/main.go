// Command psclin checks a recorded register history (JSON) for
// linearizability, ε-superlinearizability (§6.2), or membership in the
// relaxations P_ε / P^δ (Definitions 2.11–2.12).
//
// Input format (times in nanoseconds; omit "res" for a pending operation):
//
//	{
//	  "initial": "v0",
//	  "ops": [
//	    {"node": 0, "kind": "write", "value": "a", "inv": 0,  "res": 10},
//	    {"node": 1, "kind": "read",  "value": "a", "inv": 20, "res": 30}
//	  ]
//	}
//
// Usage:
//
//	psclin history.json             # plain linearizability
//	psclin -super 2000 history.json # superlinearizability, 2ε = 2·2000ns... (ε in ns)
//	psclin -widen 500 history.json  # P_ε with ε = 500ns
//	cat history.json | psclin -     # read from stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"psclock/internal/linearize"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

type jsonOp struct {
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	Value string `json:"value"`
	Inv   int64  `json:"inv"`
	Res   *int64 `json:"res"`
}

type jsonHistory struct {
	Initial string   `json:"initial"`
	Ops     []jsonOp `json:"ops"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psclin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	super := fs.Int64("super", 0, "check ε-superlinearizability with this ε in ns")
	widen := fs.Int64("widen", 0, "check P_ε membership with this ε in ns")
	shift := fs.Int64("shift", 0, "check P^δ membership with this δ in ns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"super", *super}, {"widen", *widen}, {"shift", *shift}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "psclin: -%s %d is negative\n", f.name, f.v)
			return 2
		}
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: psclin [flags] <history.json | ->")
		return 2
	}

	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "psclin:", err)
		return 2
	}

	var h jsonHistory
	if err := json.Unmarshal(data, &h); err != nil {
		fmt.Fprintln(stderr, "psclin: bad JSON:", err)
		return 2
	}

	ops := make([]linearize.Op, 0, len(h.Ops))
	for i, jo := range h.Ops {
		op := linearize.Op{
			Node:  ta.NodeID(jo.Node),
			Value: jo.Value,
			Inv:   simtime.Time(jo.Inv),
			Res:   simtime.Never,
		}
		switch jo.Kind {
		case "read":
			op.Kind = linearize.Read
		case "write":
			op.Kind = linearize.Write
		default:
			fmt.Fprintf(stderr, "psclin: op %d: kind must be \"read\" or \"write\", got %q\n", i, jo.Kind)
			return 2
		}
		if jo.Res != nil {
			if *jo.Res < jo.Inv {
				fmt.Fprintf(stderr, "psclin: op %d: res %d precedes inv %d\n", i, *jo.Res, jo.Inv)
				return 2
			}
			op.Res = simtime.Time(*jo.Res)
		}
		ops = append(ops, op)
	}

	opt := linearize.Options{
		Initial:     h.Initial,
		MinAfterInv: 2 * simtime.Duration(*super),
		Widen:       simtime.Duration(*widen),
		ShiftFuture: simtime.Duration(*shift),
	}
	r := linearize.Check(ops, opt)
	if r.OK {
		fmt.Fprintf(stdout, "OK: history of %d ops is linearizable (%d states searched)\n", len(ops), r.States)
		return 0
	}
	fmt.Fprintf(stdout, "VIOLATION: %s\n", r.Reason)
	small := linearize.Shrink(ops, nil, opt)
	if len(small) < len(ops) {
		fmt.Fprintf(stdout, "minimal violating sub-history (%d of %d ops):\n", len(small), len(ops))
		for _, o := range small {
			fmt.Fprintf(stdout, "  %v\n", o)
		}
	}
	return 1
}
