package simtime

import (
	"math"
	"testing"
	"time"
)

func TestToWall(t *testing.T) {
	cases := []struct {
		name string
		d    Duration
		want time.Duration
		ok   bool
	}{
		{"zero", 0, 0, true},
		{"one ns", Nanosecond, time.Nanosecond, true},
		{"millis", 3 * Millisecond, 3 * time.Millisecond, true},
		{"large", 290 * 365 * 24 * 3600 * Second, 0, true}, // ~290 years still representable
		{"negative", -Millisecond, 0, false},
		{"min int64", Duration(math.MinInt64), 0, false},
		{"forever", Forever, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ToWall(c.d)
			if (err == nil) != c.ok {
				t.Fatalf("ToWall(%v) error = %v, want ok=%v", c.d, err, c.ok)
			}
			if err == nil && c.want != 0 && got != c.want {
				t.Fatalf("ToWall(%v) = %v, want %v", c.d, got, c.want)
			}
		})
	}
}

func TestFromWall(t *testing.T) {
	cases := []struct {
		name string
		d    time.Duration
		want Duration
		ok   bool
	}{
		{"zero", 0, 0, true},
		{"micro", time.Microsecond, Microsecond, true},
		{"second", time.Second, Second, true},
		{"negative", -time.Second, 0, false},
		{"max collides with Forever", time.Duration(math.MaxInt64), 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := FromWall(c.d)
			if (err == nil) != c.ok {
				t.Fatalf("FromWall(%v) error = %v, want ok=%v", c.d, err, c.ok)
			}
			if err == nil && got != c.want {
				t.Fatalf("FromWall(%v) = %v, want %v", c.d, got, c.want)
			}
		})
	}
}

func TestTimeFromWall(t *testing.T) {
	cases := []struct {
		name    string
		elapsed time.Duration
		want    Time
		ok      bool
	}{
		{"epoch", 0, Zero, true},
		{"later", 42 * time.Millisecond, Time(42 * Millisecond), true},
		{"negative", -time.Nanosecond, 0, false},
		{"max collides with Never", time.Duration(math.MaxInt64), 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := TimeFromWall(c.elapsed)
			if (err == nil) != c.ok {
				t.Fatalf("TimeFromWall(%v) error = %v, want ok=%v", c.elapsed, err, c.ok)
			}
			if err == nil && got != c.want {
				t.Fatalf("TimeFromWall(%v) = %v, want %v", c.elapsed, got, c.want)
			}
		})
	}
}
