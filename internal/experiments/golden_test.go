package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"psclock/internal/channel"
	"psclock/internal/clock"
	"psclock/internal/exec"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/trace"
)

// goldenHashes pins the full recorded trace (labels, kinds, times,
// sequence numbers, and sources) of the E3 register system for three fixed
// seeds in each model. The clock-model constants were captured from the
// original linear-scan executor, the timed and MMT ones from the three
// separate builders before they shared one assembly; any scheduler,
// routing or assembly change that alters component order, dispatch order,
// timing, or tie-breaking will change a hash. They are the regression
// guard for executor and builder refactors: determinism here means
// byte-identical traces, not merely equivalent tables.
var goldenHashes = map[string]map[int64]uint64{
	"clock": {
		1: 0x930d644c06903999,
		2: 0x23e39211523ae177,
		3: 0x090a64c38e889412,
	},
	"timed": {
		1: 0xcd2ce26c47ae7f29,
		2: 0x375012d4b02dfe0f,
		3: 0x6bf74d88e03ad63a,
	},
	"mmt": {
		1: 0x02336e435c97918f,
		2: 0x50e9f0ff09d7f6cb,
		3: 0xd8c65ffe7f8dfe23,
	},
}

// goldenName names a golden subtest: E3's own clock-model system by its
// seed alone, the other models prefixed with the model.
func goldenName(model string, seed int64) string {
	if model == "clock" {
		return fmt.Sprintf("seed%d", seed)
	}
	return fmt.Sprintf("%s-seed%d", model, seed)
}

// goldenSpec is the E3-style register system for one model and seed. The
// MMT run gets Theorem 5.2's d'2 headroom for its step bound.
func goldenSpec(model string, seed int64) runSpec {
	bounds := simtime.NewInterval(1*ms, 3*ms)
	eps := 500 * us
	ell := 50 * us
	p := register.Params{C: 700 * us, Delta: 10 * us, D2: bounds.Hi + 2*eps, Epsilon: eps}
	if model == "mmt" {
		p.D2 += 24 * ell
	}
	return runSpec{
		model:   model,
		factory: register.Factory(register.NewS, p),
		n:       3, bounds: bounds, seed: seed, ell: ell,
		clocks: clock.SpreadFactory(eps), delays: channel.UniformDelay,
		ops: 25, think: simtime.NewInterval(0, 2*ms), writeRatio: 0.4,
	}
}

// goldenRun executes the golden system for one model and seed with tracing
// on and returns the FNV-1a hash of every recorded event.
func goldenRun(model string, seed int64) (uint64, error) {
	out, err := run(goldenSpec(model, seed))
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, e := range out.net.Sys.Trace() {
		fmt.Fprintf(h, "%s|%d|%d|%d|%s\n", e.Action.Label(), e.Action.Kind, e.At, e.Seq, e.Src)
	}
	return h.Sum64(), nil
}

// TestGoldenTracesStreaming replays the golden runs with retention off
// and a streaming hash sink attached: the event-sink pipeline must
// observe byte-for-byte the stream the retained trace would hold, so the
// sink's hash must reproduce the very same golden constants.
func TestGoldenTracesStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("full register runs; skipped with -short")
	}
	for model, hashes := range goldenHashes {
		for seed, want := range hashes {
			model, seed, want := model, seed, want
			t.Run(goldenName(model, seed), func(t *testing.T) {
				t.Parallel()
				h := trace.NewHash()
				spec := goldenSpec(model, seed)
				spec.sinks, spec.noRetain = []exec.Sink{h}, true
				if _, err := run(spec); err != nil {
					t.Fatal(err)
				}
				if got := h.Sum64(); got != want {
					t.Errorf("streaming trace hash = %#x, want %#x (sink stream diverges from retained trace)", got, want)
				}
			})
		}
	}
}

// TestGoldenTraces asserts that fixed-seed executions produce byte-for-byte
// the traces recorded when the constants above were captured.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full register runs; skipped with -short")
	}
	for model, hashes := range goldenHashes {
		for seed, want := range hashes {
			model, seed, want := model, seed, want
			t.Run(goldenName(model, seed), func(t *testing.T) {
				t.Parallel()
				got, err := goldenRun(model, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("trace hash = %#x, want %#x (scheduler determinism drift)", got, want)
				}
			})
		}
	}
}
