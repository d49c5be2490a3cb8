// Kernel benchmarks: the simulation inner loop (Engine.Step ->
// Network.Tick -> 17x Router.tick) that every figure, batch point and
// pearld job ultimately spends its time in. One op is one network cycle,
// so ns/op reads as ns/cycle and allocs/op as allocs/cycle; cycles_per_sec
// is reported as a derived metric. BENCH_kernel.json records the
// before/after numbers for the allocation-free kernel rewrite, and
// cmd/benchgate compares fresh runs against that baseline in CI.
package pearl

import (
	"testing"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// kernelWarmupCycles brings the workload and buffers to steady state
// before timing starts, so the numbers reflect the sustained regime a
// fig5-style sweep runs in, not cold-start growth.
const kernelWarmupCycles = 2000

// buildPEARLKernel wires the standard PEARL-Dyn stack exactly as
// experiments.Run does, minus measurement (the kernel itself is the
// subject, not the stats layer). It is shared with the steady-state
// allocation test in kernel_alloc_test.go.
func buildPEARLKernel(b testing.TB) *sim.Engine {
	b.Helper()
	engine := sim.NewEngine()
	net, err := core.New(engine, config.PEARLDyn())
	if err != nil {
		b.Fatal(err)
	}
	w, err := traffic.NewWorkload(engine, net, traffic.TestPairs()[0], 2018)
	if err != nil {
		b.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(kernelWarmupCycles)
	return engine
}

// BenchmarkKernel times the photonic crossbar's steady-state cycle loop.
func BenchmarkKernel(b *testing.B) {
	engine := buildPEARLKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "cycles/sec")
	}
}

// BenchmarkKernelCMESH times the electrical baseline's cycle loop, which
// shares the engine, buffers and workload with the photonic kernel.
func BenchmarkKernelCMESH(b *testing.B) {
	engine := sim.NewEngine()
	net, err := cmesh.New(engine, config.Default())
	if err != nil {
		b.Fatal(err)
	}
	w, err := traffic.NewWorkload(engine, net, traffic.TestPairs()[0], 2018)
	if err != nil {
		b.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(kernelWarmupCycles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "cycles/sec")
	}
}
