// Command pscsim runs one register system configuration — algorithm ×
// model × adversary — under a closed-loop workload, verifies the history,
// and reports latencies. It is the interactive entry point to the library;
// the experiment harness (pscbench) sweeps the same machinery.
//
// Example:
//
//	pscsim -model clock -alg S -n 3 -eps 500us -d1 1ms -d2 3ms \
//	       -c 700us -clocks sawtooth -delays spread -ops 50 -trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	model    string
	alg      string
	n        int
	eps      simtime.Duration
	d1, d2   simtime.Duration
	c        simtime.Duration
	delta    simtime.Duration
	ell      simtime.Duration
	clocks   string
	delays   string
	steps    string
	ops      int
	writes   float64
	seed     int64
	trace    bool
	timeline bool
	jsonOut  string
	traceOut string
	noBuf    bool
	fifo     bool
}

func parseDur(fs *flag.FlagSet, name, def, help string) *simtime.Duration {
	d := new(simtime.Duration)
	fs.Func(name, help+" (default "+def+")", func(s string) error {
		v, err := simtime.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = v
		return nil
	})
	v, err := simtime.ParseDuration(def)
	if err != nil {
		panic(err)
	}
	*d = v
	return d
}

func run(args []string) int {
	fs := flag.NewFlagSet("pscsim", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.model, "model", "clock", "system model: timed | clock | mmt")
	fs.StringVar(&o.alg, "alg", "S", "algorithm: L | S | baseline")
	fs.IntVar(&o.n, "n", 3, "number of nodes")
	eps := parseDur(fs, "eps", "500us", "clock accuracy ε")
	d1 := parseDur(fs, "d1", "1ms", "minimum link delay d1")
	d2 := parseDur(fs, "d2", "3ms", "maximum link delay d2")
	c := parseDur(fs, "c", "500us", "read/write tradeoff knob c")
	delta := parseDur(fs, "delta", "10us", "the δ wait of §6.1")
	ell := parseDur(fs, "ell", "50us", "MMT step bound ℓ")
	fs.StringVar(&o.clocks, "clocks", "drift", "clock models: perfect | spread | drift | sawtooth")
	fs.StringVar(&o.delays, "delays", "uniform", "delay policy: min | max | uniform | spread")
	fs.StringVar(&o.steps, "steps", "lazy", "MMT step policy: lazy | eager | uniform")
	fs.IntVar(&o.ops, "ops", 30, "operations per client")
	fs.Float64Var(&o.writes, "writes", 0.4, "write ratio")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.trace, "trace", false, "print the visible trace")
	fs.BoolVar(&o.timeline, "timeline", false, "print an ASCII per-node timeline")
	fs.StringVar(&o.jsonOut, "json", "", "write the operation history as JSON to this file (\"-\" for stdout)")
	fs.StringVar(&o.traceOut, "tracejson", "", "write the full trace as JSON lines to this file (for psctrace)")
	fs.BoolVar(&o.noBuf, "nobuffer", false, "disable the receive buffer (§7.2 ablation)")
	fs.BoolVar(&o.fifo, "fifo", false, "FIFO links (no reordering)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.eps, o.d1, o.d2, o.c, o.delta, o.ell = *eps, *d1, *d2, *c, *delta, *ell
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pscsim:", err)
		return 2
	}

	if err := simulate(o); err != nil {
		fmt.Fprintln(os.Stderr, "pscsim:", err)
		return 1
	}
	return 0
}

// validate rejects flag values that build no system or leave nothing to
// check, naming the flag.
func (o options) validate() error {
	switch {
	case o.n < 1:
		return fmt.Errorf("-n %d: need at least 1 node", o.n)
	case o.d1 < 0:
		return fmt.Errorf("-d1 %v is negative", o.d1)
	case o.d1 > o.d2:
		return fmt.Errorf("-d1 %v exceeds -d2 %v", o.d1, o.d2)
	case o.ops < 1:
		return fmt.Errorf("-ops %d: need at least 1 operation per client", o.ops)
	case !(o.writes >= 0 && o.writes <= 1):
		return fmt.Errorf("-writes %v is outside [0, 1]", o.writes)
	}
	return nil
}

func simulate(o options) error {
	bounds := simtime.NewInterval(o.d1, o.d2)

	var cf clock.Factory
	switch o.clocks {
	case "perfect":
		cf = clock.PerfectFactory()
	case "spread":
		cf = clock.SpreadFactory(o.eps)
	case "drift":
		cf = clock.DriftFactory(o.eps, o.seed)
	case "sawtooth":
		cf = clock.SawtoothFactory(o.eps, 8*o.eps+simtime.Millisecond)
	default:
		return fmt.Errorf("unknown clock model %q", o.clocks)
	}

	var df func() channel.DelayPolicy
	switch o.delays {
	case "min":
		df = channel.MinDelay
	case "max":
		df = channel.MaxDelay
	case "uniform":
		df = channel.UniformDelay
	case "spread":
		df = channel.SpreadDelay
	default:
		return fmt.Errorf("unknown delay policy %q", o.delays)
	}

	var sf func() core.StepPolicy
	switch o.steps {
	case "lazy":
		sf = core.LazySteps
	case "eager":
		sf = core.EagerSteps
	case "uniform":
		sf = core.UniformSteps
	default:
		return fmt.Errorf("unknown step policy %q", o.steps)
	}

	// d'2 the algorithm designs against, per Theorem 4.7 / 5.2.
	d2p := o.d2
	if o.model != "timed" {
		d2p += 2 * o.eps
	}
	if o.model == "mmt" {
		d2p += 24 * o.ell
	}
	p := register.Params{C: o.c, Delta: o.delta, D2: d2p, Epsilon: o.eps}
	var factory core.AlgorithmFactory
	var wantRead, wantWrite simtime.Duration
	switch o.alg {
	case "L":
		factory = register.Factory(register.NewL, p)
		wantRead, wantWrite = o.c+o.delta, d2p-o.c
	case "S":
		if err := p.Validate(); err != nil {
			return err
		}
		factory = register.Factory(register.NewS, p)
		wantRead, wantWrite = 2*o.eps+o.c+o.delta, d2p-o.c
	case "baseline":
		factory = register.BaselineFactory(2*o.eps, o.d2)
		wantRead, wantWrite = 8*o.eps, o.d2+6*o.eps
	default:
		return fmt.Errorf("unknown algorithm %q", o.alg)
	}

	cfg := core.Config{
		N:                 o.n,
		Bounds:            bounds,
		Seed:              o.seed,
		Clocks:            cf,
		NewDelay:          df,
		Ell:               o.ell,
		NewStep:           sf,
		FIFO:              o.fifo,
		DisableRecvBuffer: o.noBuf,
	}
	net, err := core.Build(o.model, cfg, factory)
	if err != nil {
		return err
	}
	done := workload.AllDone(workload.Attach(net, workload.Config{
		Ops:        o.ops,
		Think:      simtime.NewInterval(0, 2*simtime.Millisecond),
		WriteRatio: o.writes,
		Seed:       o.seed + 1,
		Stagger:    300 * simtime.Microsecond,
	}))
	if err := net.RunUntil(done, simtime.Time(120*simtime.Second)); err != nil {
		return err
	}
	if !done() {
		return fmt.Errorf("clients did not finish within the simulation horizon")
	}

	vis := net.Sys.Trace().Visible()
	if o.trace {
		fmt.Print(vis)
	}
	if o.timeline {
		fmt.Print(stats.Timeline(vis, 100))
	}
	ops, err := register.History(vis)
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := writeHistoryJSON(o.jsonOut, ops); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := net.Sys.Trace().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	reads, writes := register.Latencies(ops)
	fmt.Printf("model=%s alg=%s n=%d ε=%v d=[%v,%v] c=%v ops=%d\n",
		o.model, o.alg, o.n, o.eps, o.d1, o.d2, o.c, len(ops))
	fmt.Printf("reads : %v (paper: %v)\n", stats.Summarize(reads), wantRead)
	fmt.Printf("writes: %v (paper: %v)\n", stats.Summarize(writes), wantWrite)

	r := linearize.CheckLinearizable(ops, register.Initial.String())
	if r.OK {
		fmt.Printf("linearizable: yes (%d states searched)\n", r.States)
	} else {
		fmt.Printf("linearizable: NO — %s\n", r.Reason)
		small := linearize.Shrink(ops, linearize.Options{Initial: register.Initial.String()})
		if len(small) < len(ops) {
			fmt.Printf("minimal violating sub-history (%d ops):\n", len(small))
			for _, o := range small {
				fmt.Printf("  %v\n", o)
			}
		}
		return fmt.Errorf("history is not linearizable")
	}
	return nil
}

// writeHistoryJSON emits the history in psclin's input format.
func writeHistoryJSON(path string, ops []linearize.Op) error {
	type jsonOp struct {
		Node  int    `json:"node"`
		Kind  string `json:"kind"`
		Value string `json:"value"`
		Inv   int64  `json:"inv"`
		Res   *int64 `json:"res,omitempty"`
	}
	out := struct {
		Initial string   `json:"initial"`
		Ops     []jsonOp `json:"ops"`
	}{Initial: register.Initial.String()}
	for _, o := range ops {
		jo := jsonOp{Node: int(o.Node), Value: o.Value, Inv: int64(o.Inv)}
		if o.Kind == linearize.Read {
			jo.Kind = "read"
		} else {
			jo.Kind = "write"
		}
		if !o.Pending() {
			res := int64(o.Res)
			jo.Res = &res
		}
		out.Ops = append(out.Ops, jo)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
