package simtime

import (
	"fmt"
	"time"
)

// Wall-clock conversions for the live runtime (internal/live): simulated
// instants there are nanoseconds since the runtime's epoch, so the numeric
// conversion to time.Duration is the identity — but the sentinels (Never,
// Forever) and negative spans must never cross the boundary silently. A
// Never that leaks into time.NewTimer is a ~292-year sleep; a negative
// wall reading converted to a Time violates axiom S1. Every helper
// therefore guards explicitly and returns an error instead of a wrong
// number.

// ToWall converts a simulated duration to a wall-clock duration. It
// rejects negative durations (there is no such thing as waiting a
// negative span) and the Forever sentinel (which is not a span at all).
func ToWall(d Duration) (time.Duration, error) {
	if d == Forever {
		return 0, fmt.Errorf("simtime: Forever has no wall-clock equivalent")
	}
	if d < 0 {
		return 0, fmt.Errorf("simtime: negative duration %v has no wall-clock equivalent", d)
	}
	return time.Duration(d), nil
}

// FromWall converts a wall-clock duration to a simulated duration. It
// rejects negative spans and values that would collide with the Forever
// sentinel (time.Duration's maximum is the same bit pattern).
func FromWall(d time.Duration) (Duration, error) {
	if d < 0 {
		return 0, fmt.Errorf("simtime: negative wall duration %v", d)
	}
	if Duration(d) == Forever {
		return 0, fmt.Errorf("simtime: wall duration %v collides with the Forever sentinel", d)
	}
	return Duration(d), nil
}

// TimeFromWall converts wall-clock time elapsed since an epoch to a
// simulated instant. It rejects negative elapsed time (the epoch is the
// simulated Zero; axiom S1 forbids instants before it) and values that
// would collide with the Never sentinel.
func TimeFromWall(elapsed time.Duration) (Time, error) {
	if elapsed < 0 {
		return 0, fmt.Errorf("simtime: negative elapsed wall time %v", elapsed)
	}
	if Time(elapsed) == Never {
		return 0, fmt.Errorf("simtime: elapsed wall time %v collides with the Never sentinel", elapsed)
	}
	return Time(elapsed), nil
}
