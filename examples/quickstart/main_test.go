package main

import "fmt"

// Example_run runs the Quickstart end to end and pins what it prints; an
// error run returns is printed, so it fails the comparison too.
func Example_run() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// client(n0) completed 30 operations
	// client(n1) completed 30 operations
	// client(n2) completed 30 operations
	// reads : n=49 min=1.431ms mean=1.715ms p99=2.012ms max=2.012ms (paper: 1.71ms in clock time)
	// writes: n=41 min=2.872ms mean=3.299ms p99=3.79ms max=3.79ms (paper: 3.3ms in clock time)
	// history is linearizable ✓ (Theorem 6.5)
}
