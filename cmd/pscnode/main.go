// Command pscnode is one fleet node: an OS process hosting a node's
// register instances and heartbeat detector on the live runtime, meshed
// to its peers over TCP, remote-controlled by the pscfleet plane that
// spawned it. It is not meant to be launched by hand and takes no flags:
// its control channel is its stdin and stdout, and the plane's first
// message on it is the node's configuration (node, fleet size, epoch,
// incarnation, model). Standard output carries the channel alone; the
// process's other output goes to stderr.
//
// SIGINT/SIGTERM, or the end of stdin, trigger the same graceful drain a
// Shutdown command does: the client surface closes, the runtime stops,
// the recorder's tail ships to the plane, and the process says Bye before
// exiting — so an operator's ^C is distinguishable from a chaos SIGKILL.
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"psclock/internal/fleet"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "pscnode: takes no arguments (pscfleet sends the configuration on stdin)")
		return 2
	}
	channel := os.Stdout
	os.Stdout = os.Stderr // nothing but the channel writes fd 1
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	if err := fleet.RunDaemon(os.Stdin, channel, sigs, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pscnode: %v\n", err)
		return 1
	}
	return 0
}
