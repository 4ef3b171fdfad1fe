// Command pscnode is one fleet node: an OS process hosting a node's
// register instances and heartbeat detector on the live runtime, meshed
// to its peers over TCP, remote-controlled by the pscfleet plane that
// spawned it. It is not meant to be launched by hand — the plane passes
// the epoch, incarnation, and model parameters on the command line and
// speaks the control protocol over the -plane connection.
//
// SIGINT/SIGTERM trigger the same graceful drain a Shutdown command
// does: the client surface closes, the runtime stops, the recorder's
// tail ships to the plane, and the process says Bye before exiting —
// so an operator's ^C is distinguishable from a chaos SIGKILL.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psclock/internal/fleet"
	"psclock/internal/simtime"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		node        = flag.Int("node", -1, "this node's ID")
		n           = flag.Int("n", 0, "fleet size")
		registers   = flag.Int("registers", 1, "data registers per node")
		incarnation = flag.Int("incarnation", 0, "restart incarnation (0 = original)")
		plane       = flag.String("plane", "", "control-plane address")
		epoch       = flag.Int64("epoch", 0, "fleet epoch (unix nanoseconds)")
		seed        = flag.Int64("seed", 1, "rng seed")
		tiers       = flag.String("tiers", "", "per-register consistency tiers")

		detPeriod  = flag.Duration("detperiod", 150*time.Millisecond, "heartbeat period π")
		detTimeout = flag.Duration("dettimeout", 0, "heartbeat timeout τ (0 = safe default)")
		verbose    = flag.Bool("v", false, "log to stderr")
	)
	model := fleet.DefaultModel()
	model.Flags(flag.CommandLine)
	flag.Parse()

	if *node < 0 || *n < 2 || *plane == "" || *epoch == 0 {
		fmt.Fprintln(os.Stderr, "pscnode: -node, -n, -plane, and -epoch are required (launched by pscfleet)")
		return 2
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	err := fleet.RunDaemon(fleet.DaemonConfig{
		Node:          *node,
		N:             *n,
		Registers:     *registers,
		Incarnation:   *incarnation,
		PlaneAddr:     *plane,
		EpochUnixNano: *epoch,
		Seed:          *seed,
		Tiers:         *tiers,
		Model:         model,
		DetPeriod:     simtime.Duration(*detPeriod),
		DetTimeout:    simtime.Duration(*detTimeout),
		Interrupt:     sigs,
		Verbose:       *verbose,
		Stderr:        os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pscnode[%d]: %v\n", *node, err)
		return 1
	}
	return 0
}
