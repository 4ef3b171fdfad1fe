package register

import (
	"strconv"
	"testing"

	"psclock/internal/simtime"
)

func TestParseTiers(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want string // "l"/"s" per register, "" for error
	}{
		{"", 4, "llll"},
		{"lin", 3, "lll"},
		{"seq", 3, "sss"},
		{"lin:seq:lin", 3, "lsl"},
		{"lin:seq", 4, "lsss"}, // short list repeats its last element
		{"mix:0", 4, "llll"},
		{"mix:1", 4, "ssss"},
		{"mix:0.5", 4, "lsls"},
		{"mix:0.25", 8, "lllsllls"}, // 2 of 8, evenly spread
		{"bogus", 2, ""},
		{"mix:1.5", 2, ""},
		{"lin:lin:lin", 2, ""}, // more tiers than registers
	}
	for _, c := range cases {
		tiers, err := ParseTiers(c.spec, c.n)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseTiers(%q, %d): want error, got %v", c.spec, c.n, tiers)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTiers(%q, %d): %v", c.spec, c.n, err)
			continue
		}
		got := ""
		for _, tr := range tiers {
			if tr == TierSeq {
				got += "s"
			} else {
				got += "l"
			}
		}
		if got != c.want {
			t.Errorf("ParseTiers(%q, %d) = %s, want %s", c.spec, c.n, got, c.want)
		}
	}
}

// mix:F yields ⌊F·R⌋ or ⌈F·R⌉ seq registers for any F, spread so every
// prefix holds roughly its share.
func TestParseTiersMixCount(t *testing.T) {
	for _, f := range []string{"0.1", "0.3", "0.5", "0.7", "0.9"} {
		tiers, err := ParseTiers("mix:"+f, 64)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tr := range tiers {
			if tr == TierSeq {
				n++
			}
		}
		frac, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := int(frac * 64)
		if n != want && n != want+1 {
			t.Errorf("mix:%s over 64 registers: %d seq, want %d or %d", f, n, want, want+1)
		}
	}
}

// The tier read discount is exactly the 2ε wait algorithm S pays for
// linearizability: same write cost, seq reads 2ε cheaper (Lemmas 6.1, 6.2).
func TestTierCosts(t *testing.T) {
	p := Params{C: 2 * simtime.Millisecond, Delta: simtime.Millisecond,
		D2: 10 * simtime.Millisecond, Epsilon: simtime.Millisecond}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	linR, linW := TierLin.New(p).Costs()
	seqR, seqW := TierSeq.New(p).Costs()
	if linW != seqW {
		t.Errorf("write costs differ across tiers: lin %v, seq %v", linW, seqW)
	}
	if d := linR - seqR; d != 2*p.Epsilon {
		t.Errorf("read discount = %v, want 2ε = %v", d, 2*p.Epsilon)
	}
}

func TestParseTierRoundTrip(t *testing.T) {
	for _, tr := range []Tier{TierLin, TierSeq} {
		got, err := ParseTier(tr.String())
		if err != nil || got != tr {
			t.Errorf("ParseTier(%q) = %v, %v", tr.String(), got, err)
		}
	}
	if _, err := ParseTier("strong"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}
