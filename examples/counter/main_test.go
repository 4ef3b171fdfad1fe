package main

import "testing"

// TestRun runs the example end to end; every check it makes on its own
// output is an error returned here.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
