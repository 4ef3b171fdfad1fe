package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"psclock/internal/live"
)

// The live reports share one embedded core, and the committed sections of
// BENCH_results.json are the compatibility surface: each must decode into
// its report type with no key left over and encode back to exactly the
// keys it had.
func TestReportsKeepCommittedKeys(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	keys := func(raw []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for section, rep := range map[string]any{
		"live":        &live.Report{},
		"live_closed": &live.Report{},
		"live_tiered": &live.Report{},
		"live_fleet":  &Report{},
	} {
		raw, ok := doc[section]
		if !ok {
			t.Fatalf("BENCH_results.json has no %s section", section)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rep); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		again, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keys(again), keys(raw); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-encoded keys\n%v\nwant the committed\n%v", section, got, want)
		}
	}
}
