// Command pearlsim runs one network configuration on one benchmark pair
// and prints the measured throughput, latency and power.
//
// Usage:
//
//	pearlsim -config pearl-dyn -cpu fmm -gpu DCT -cycles 60000
//	pearlsim -config dyn-rw500 -turnon 4
//	pearlsim -config ml-rw500 -model model.json
//	pearlsim -config cmesh
//
// Configurations: pearl-dyn, pearl-fcfs, static-48/32/16/8, dyn-rw500,
// dyn-rw2000, ml-rw500, ml-rw500-no8wl, ml-rw1000, ml-rw2000, cmesh.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	var (
		configName = flag.String("config", "pearl-dyn", "configuration to simulate")
		cpuBench   = flag.String("cpu", "fmm", "CPU benchmark name")
		gpuBench   = flag.String("gpu", "DCT", "GPU benchmark name")
		cycles     = flag.Int64("cycles", 60000, "measured cycles")
		warmup     = flag.Int64("warmup", 2000, "warmup cycles")
		seed       = flag.Uint64("seed", 2018, "experiment seed")
		turnOn     = flag.Float64("turnon", 2, "laser turn-on time (ns)")
		modelPath  = flag.String("model", "", "trained model JSON (required for ml-* configs)")
		timeline   = flag.Bool("timeline", false, "print per-window wavelength/throughput sparklines")
	)
	flag.Parse()

	if err := run(*configName, *cpuBench, *gpuBench, *cycles, *warmup, *seed, *turnOn, *modelPath, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "pearlsim:", err)
		os.Exit(1)
	}
}

func run(configName, cpuBench, gpuBench string, cycles, warmup int64, seed uint64, turnOn float64, modelPath string, timeline bool) error {
	cpu, err := traffic.ProfileByName(cpuBench)
	if err != nil {
		return err
	}
	gpu, err := traffic.ProfileByName(gpuBench)
	if err != nil {
		return err
	}
	pair := traffic.Pair{CPU: cpu, GPU: gpu}

	opts := experiments.Full()
	opts.Seed = seed
	opts.MeasureCycles = cycles
	opts.WarmupCycles = warmup

	if strings.EqualFold(configName, "cmesh") {
		results, err := experiments.Run(context.Background(), experiments.Point{
			Backend: experiments.BackendCMESH, Config: config.Default(), LinkScale: 1, Pair: pair,
		}, opts, nil)
		if err != nil {
			return err
		}
		report(results[0])
		return nil
	}

	cfg, err := config.ByName(configName)
	if err != nil {
		return err
	}
	cfg.LaserTurnOnNs = turnOn

	var model *models.Artifact
	if cfg.Power == config.PowerML {
		if modelPath == "" {
			return fmt.Errorf("configuration %s needs -model (train one with pearltrain)", cfg.Name())
		}
		model, err = models.LoadFile(modelPath)
		if err != nil {
			return err
		}
		if model.Window != cfg.ReservationWindow {
			return fmt.Errorf("model trained for RW%d, configuration uses RW%d",
				model.Window, cfg.ReservationWindow)
		}
	}

	if timeline {
		return runTimeline(cfg, pair, opts, model)
	}
	ctrl, err := controller.New(cfg, model)
	if err != nil {
		return err
	}
	results, err := experiments.Run(context.Background(), experiments.Point{
		Backend: experiments.BackendPEARL, Config: cfg, Pair: pair, Controller: ctrl,
	}, opts, nil)
	if err != nil {
		return err
	}
	report(results[0])
	return nil
}

// runTimeline wires the network manually so per-window signals can be
// captured: mean wavelength state across routers and delivered bits per
// window, rendered as sparklines.
func runTimeline(cfg config.Config, pair traffic.Pair, opts experiments.Options, model *models.Artifact) error {
	engine := sim.NewEngine()
	net, err := core.New(engine, cfg)
	if err != nil {
		return err
	}
	if model != nil {
		net.SetPredictor(model)
	}
	acct := power.NewAccount(config.NetworkFrequencyHz)
	net.SetAccount(acct)
	w, err := traffic.NewWorkload(engine, net, pair, opts.Seed)
	if err != nil {
		return err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)

	wlSeries := stats.NewSeries("mean wavelengths")
	thrSeries := stats.NewSeries("bits/window")
	var wlSum float64
	var wlCount int
	net.SetWindowHook(func(_ int, _ []float64, _ int64, _ float64, next photonic.WLState) {
		wlSum += float64(next.Wavelengths())
		wlCount++
	})
	var lastBits uint64
	window := int64(cfg.ReservationWindow)
	engine.Register(sim.ComponentFunc(func(cycle int64) {
		if cycle == 0 || cycle%window != 0 {
			return
		}
		if wlCount > 0 {
			wlSeries.Append(cycle, wlSum/float64(wlCount))
			wlSum, wlCount = 0, 0
		}
		bits := net.Metrics().Delivered.TotalBits()
		thrSeries.Append(cycle, float64(bits-lastBits))
		lastBits = bits
	}))

	engine.Run(warmupOf(opts))
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(opts.MeasureCycles)
	net.StopMeasurement(opts.MeasureCycles)

	m := net.Metrics()
	fmt.Printf("%s on %s — %d windows of %d cycles\n\n",
		cfg.Name(), pair.Name(), thrSeries.Len(), cfg.ReservationWindow)
	fmt.Printf("wavelengths  %s  (8..64)\n", wlSeries.Sparkline(72, 8, 64))
	fmt.Printf("throughput   %s  (0..max)\n\n", thrSeries.Sparkline(72, 0, thrSeries.Max()))
	for _, wl := range m.StateResidency.Keys() {
		fmt.Println(stats.HBar(fmt.Sprintf("%d wavelengths", wl),
			100*m.StateResidency.Fraction(wl), 100, 40))
	}
	fmt.Printf("\nthroughput %.2f bits/cycle, avg laser %.3f W\n",
		m.ThroughputBitsPerCycle(), acct.AverageLaserPowerW())
	return nil
}

func warmupOf(opts experiments.Options) int64 { return opts.WarmupCycles }

func report(res experiments.Result) {
	m := res.Metrics
	fmt.Printf("configuration:      %s\n", res.Name)
	fmt.Printf("benchmark pair:     %s\n", res.Pair.Name())
	fmt.Printf("throughput:         %.2f bits/cycle (%.1f Gbps)\n",
		m.ThroughputBitsPerCycle(), m.ThroughputGbps(config.NetworkFrequencyHz))
	fmt.Printf("delivered packets:  %d (%.1f%% CPU)\n",
		m.Delivered.TotalPackets(), 100*m.Delivered.Share(0))
	fmt.Printf("mean latency:       %.1f cycles (p50 %.0f, p99 %.0f)\n",
		m.Latency.Mean(), m.Latency.Percentile(50), m.Latency.Percentile(99))
	fmt.Printf("CPU latency:        %.1f cycles   GPU latency: %.1f cycles\n",
		m.CPULatency.Mean(), m.GPULatency.Mean())
	fmt.Printf("round trips:        %d\n", res.Retired)
	fmt.Printf("avg laser power:    %.3f W\n", res.Account.AverageLaserPowerW())
	fmt.Printf("energy per bit:     %.3f pJ\n", res.Account.EnergyPerBitJ()*1e12)
	if res.TurnOnStalls > 0 {
		fmt.Printf("turn-on stalls:     %d\n", res.TurnOnStalls)
	}
	if keys := m.StateResidency.Keys(); len(keys) > 1 {
		fmt.Printf("state residency:   ")
		for _, k := range keys {
			fmt.Printf(" %dWL=%.1f%%", k, 100*m.StateResidency.Fraction(k))
		}
		fmt.Println()
	}
}
