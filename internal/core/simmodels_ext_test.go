package core_test

import (
	"runtime"
	"testing"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/workload"
)

// eventCount is a sink that counts events and keeps nothing.
type eventCount struct{ n int }

func (c *eventCount) Observe(ta.Event)   { c.n++ }
func (c *eventCount) Flush(simtime.Time) {}

// BenchmarkSimModels runs the sim_models shape in each of the paper's three
// models: algorithm S on 8 nodes with drifting clocks (ε = 200 µs), link
// delays in [1, 3] ms, one closed-loop client per node (think 0–2 ms, 40 %
// writes), the sequential executor with a counting sink and no retained
// trace. Each iteration advances the system by one slice of simulated time
// (≈ 20 000 events) after one untimed warm-up slice, and the benchmark
// reports the CPU and the allocations per event:
//
//	go test -run '^$' -bench SimModels -cpuprofile cpu.prof ./internal/core/
func BenchmarkSimModels(b *testing.B) {
	for _, m := range []struct {
		name  string
		slice simtime.Duration
	}{
		{"timed", 1200 * extMS},
		{"clock", 600 * extMS},
		{"mmt", 200 * extMS},
	} {
		b.Run(m.name, func(b *testing.B) {
			const eps, ell = 200 * extUS, 100 * extUS
			const seed = 1
			bounds := simtime.NewInterval(1*extMS, 3*extMS)
			p := register.Params{C: eps, Delta: 10 * extUS, D2: bounds.Hi + 2*eps + 24*ell, Epsilon: eps}
			cfg := core.Config{
				N: 8, Bounds: bounds, Seed: seed*1000 + 100,
				Clocks: clock.DriftFactory(eps, seed*1000+7), Ell: ell,
			}
			net, err := core.Build(m.name, cfg, register.Factory(register.NewS, p))
			if err != nil {
				b.Fatal(err)
			}
			for _, cn := range net.Clocked {
				cn.RecordStamps = false
			}
			for _, mn := range net.MMT {
				mn.RecordStamps = false
			}
			net.Sys.KeepTrace = false
			count := &eventCount{}
			net.Sys.AddSink(count)
			workload.Attach(net, workload.Config{
				Ops:        1 << 30, // the slices end the run, not the clients
				Think:      simtime.NewInterval(0, 2*extMS),
				WriteRatio: 0.4,
				Seed:       seed*1000 + 12,
			})
			horizon := simtime.Time(0).Add(m.slice)
			if err := net.Sys.Run(horizon); err != nil {
				b.Fatal(err)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			ev0 := count.n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				horizon = horizon.Add(m.slice)
				if err := net.Sys.Run(horizon); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			events := float64(count.n - ev0)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
		})
	}
}
