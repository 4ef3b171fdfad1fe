package clock_test

import (
	"fmt"

	"psclock/internal/clock"
	"psclock/internal/simtime"
)

// ExampleSawtooth samples an adversarial sawtooth clock: always within ±ε
// of real time, never running backwards, but jumping inside the band.
func ExampleSawtooth() {
	eps := 100 * simtime.Microsecond
	m := clock.Sawtooth(eps, 8*eps)
	err := clock.Check(m, simtime.Time(10*simtime.Millisecond), 37*simtime.Microsecond)
	fmt.Println("C_eps and monotonicity hold:", err == nil)
	// Output:
	// C_eps and monotonicity hold: true
}
