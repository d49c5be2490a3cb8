package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"

	"repro"
	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// point is one simulation: a configuration on a benchmark pair at a
// seed and run length.
type point struct {
	label   string // figure row label, e.g. "PEARL-Dyn(64WL)" or "CMESH"
	backend string // "pearl" or "cmesh"
	cfg     config.Config
	model   *models.Artifact // ML configurations only
	pair    traffic.Pair
	opts    experiments.Options // Seed, WarmupCycles and MeasureCycles
}

func (p point) cycles() int64 { return p.opts.WarmupCycles + p.opts.MeasureCycles }

func (p point) key() string { return p.label + "|" + p.pair.Name() }

// jobPoint is the point pearld simulates for a job: the request's run
// lengths override the preset's, as pearld's request resolution does.
func jobPoint(j simJob) (point, error) {
	cfg, err := j.config()
	if err != nil {
		return point{}, err
	}
	label, err := j.label()
	if err != nil {
		return point{}, err
	}
	cfg.WarmupCycles = int(j.warmup)
	cfg.MeasureCycles = int(j.measure)
	return point{
		label:   label,
		backend: j.backend,
		cfg:     cfg,
		pair:    j.pair,
		opts:    experiments.Options{Seed: j.seed, WarmupCycles: j.warmup, MeasureCycles: j.measure},
	}, nil
}

// runPublic simulates the point through the root pearl package.
func runPublic(p point) (experiments.Result, error) {
	switch {
	case p.backend == "cmesh":
		return pearl.RunCMESH(p.pair, p.opts, 1)
	case p.model != nil:
		return pearl.RunWithModel(p.cfg, p.pair, p.opts, p.model)
	default:
		return pearl.Run(p.cfg, p.pair, p.opts)
	}
}

// pointStats is every simulated statistic the benchmark digests and
// compares: throughput, latency and energy, never host time.
type pointStats struct {
	Throughput     float64 `json:"throughput_bits_per_cycle"`
	Delivered      uint64  `json:"delivered_packets"`
	MeanLatency    float64 `json:"mean_latency_cycles"`
	EnergyPerBitPJ float64 `json:"energy_per_bit_pj"`
	LaserW         float64 `json:"avg_laser_power_w"`
	Retired        uint64  `json:"retired_round_trips"`
	TurnOnStalls   uint64  `json:"turn_on_stalls"`
}

// statsOf extracts the statistics with the same arithmetic pearld uses
// to build a job result, so kernel and server values compare exactly.
func statsOf(res experiments.Result) pointStats {
	return pointStats{
		Throughput:     res.Metrics.ThroughputBitsPerCycle(),
		Delivered:      res.Metrics.Delivered.TotalPackets(),
		MeanLatency:    res.Metrics.Latency.Mean(),
		EnergyPerBitPJ: res.Account.EnergyPerBitJ() * 1e12,
		LaserW:         res.Account.AverageLaserPowerW(),
		Retired:        res.Retired,
		TurnOnStalls:   res.TurnOnStalls,
	}
}

// check is the per-point output check: traffic was delivered at a finite
// energy per bit.
func (s pointStats) check() error {
	if s.Delivered == 0 {
		return fmt.Errorf("delivered no packets")
	}
	if math.IsNaN(s.EnergyPerBitPJ) || math.IsInf(s.EnergyPerBitPJ, 0) || s.EnergyPerBitPJ <= 0 {
		return fmt.Errorf("energy per bit %v pJ is not finite and positive", s.EnergyPerBitPJ)
	}
	return nil
}

// digest folds simulated statistics, in a fixed order, into one hash:
// equal digests mean every digested statistic is bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(key string, s pointStats) {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(d.h, "%s|%s|%d|%s|%s|%s|%d|%d\n", key, f(s.Throughput), s.Delivered,
		f(s.MeanLatency), f(s.EnergyPerBitPJ), f(s.LaserW), s.Retired, s.TurnOnStalls)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// network is what the bare stack needs from either backend.
type network interface {
	traffic.Target
	sim.Component
	SetAccount(*power.Account)
	SetDeliveryHandler(func(p *noc.Packet, cycle int64))
	StartMeasurement()
	StopMeasurement(measured int64)
	Metrics() *stats.Network
	InFlight() int
}

// workloadSeed mirrors the per-run workload seed the experiment runner
// derives from the experiment seed and the pair name. A drift would show
// as a mismatch between bare-stack and pearl.Run statistics.
func workloadSeed(seed uint64, pairName string) uint64 {
	h := seed
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b)
	}
	return h
}

// stack is one simulation assembled from the kernel's constructors
// (core.New or cmesh.New, traffic.NewWorkload, controller.New), wired as
// the experiment runner wires it. With a ledger, every layer boundary is
// wrapped to record spans and counters; the wrappers only observe.
type stack struct {
	engine  *sim.Engine
	net     network
	work    *traffic.Workload
	acct    *power.Account
	stalls  func() uint64
	led     *ledger
	backend int
}

func buildStack(p point, led *ledger) (*stack, error) {
	engine := sim.NewEngine()
	wseed := workloadSeed(p.opts.Seed, p.pair.Name())
	s := &stack{engine: engine, acct: power.NewAccount(config.NetworkFrequencyHz), led: led, stalls: func() uint64 { return 0 }}
	netLayer := layerCore
	switch p.backend {
	case "cmesh":
		net, err := cmesh.New(engine, p.cfg)
		if err != nil {
			return nil, err
		}
		net.SetLinkScale(1)
		s.net, s.backend, netLayer = net, backendCMESH, layerCMESH
	case "pearl":
		net, err := core.New(engine, p.cfg)
		if err != nil {
			return nil, err
		}
		ctrl, err := controller.New(p.cfg, p.model)
		if err != nil {
			return nil, err
		}
		pol, err := ctrl.Policy(wseed)
		if err != nil {
			return nil, err
		}
		if led != nil {
			pol = &tracedPolicy{inner: pol, led: led}
		}
		net.SetStatePolicy(pol)
		s.net, s.backend = net, backendPEARL
		s.stalls = func() uint64 { return net.AuxCounters().TurnOnStalls }
	default:
		return nil, fmt.Errorf("unknown backend %q", p.backend)
	}
	s.net.SetAccount(s.acct)
	if led == nil {
		w, err := traffic.NewWorkload(engine, s.net, p.pair, wseed)
		if err != nil {
			return nil, err
		}
		s.work = w
		s.net.SetDeliveryHandler(w.OnDeliver)
		engine.Register(w)
		engine.Register(s.net)
		return s, nil
	}
	w, err := traffic.NewWorkload(engine, countingTarget{s.net, led}, p.pair, wseed)
	if err != nil {
		return nil, err
	}
	s.work = w
	backend := s.backend
	s.net.SetDeliveryHandler(func(pkt *noc.Packet, cycle int64) {
		led.delivered[backend]++
		led.spans.begin(layerDeliver)
		w.OnDeliver(pkt, cycle)
		led.spans.end()
	})
	engine.Register(sim.ComponentFunc(func(cycle int64) {
		led.spans.begin(layerTrafficTick)
		w.Tick(cycle)
		led.spans.end()
	}))
	net := s.net
	engine.Register(sim.ComponentFunc(func(cycle int64) {
		led.spans.begin(netLayer)
		net.Tick(cycle)
		led.spans.end()
	}))
	return s, nil
}

// run executes n cycles, one engine step at a time when traced.
func (s *stack) run(n int64) {
	if s.led == nil {
		s.engine.Run(n)
		return
	}
	for i := int64(0); i < n; i++ {
		s.led.step(s)
	}
}

// simulate runs warmup and measurement and returns the statistics the
// experiment runner's result would carry.
func (s *stack) simulate(p point) experiments.Result {
	s.run(p.opts.WarmupCycles)
	s.net.StartMeasurement()
	s.work.StartMeasurement()
	s.run(p.opts.MeasureCycles)
	s.net.StopMeasurement(p.opts.MeasureCycles)
	s.work.StopMeasurement()
	if s.led != nil {
		s.led.stalls += int64(s.stalls())
	}
	return experiments.Result{
		Metrics:      s.net.Metrics(),
		Account:      s.acct,
		Retired:      s.work.Retired,
		TurnOnStalls: s.stalls(),
	}
}

// runBare builds and simulates the point on a bare stack, traced when
// led is non-nil.
func runBare(p point, led *ledger) (pointStats, error) {
	s, err := buildStack(p, led)
	if err != nil {
		return pointStats{}, err
	}
	return statsOf(s.simulate(p)), nil
}

// countingTarget counts the packets the workload gets into the network.
type countingTarget struct {
	net traffic.Target
	led *ledger
}

func (t countingTarget) Inject(p *noc.Packet) bool {
	ok := t.net.Inject(p)
	if ok {
		t.led.injected++
	}
	return ok
}

// tracedPolicy times and counts the controller's window decisions.
type tracedPolicy struct {
	inner core.StatePolicy
	led   *ledger
}

func (t *tracedPolicy) NextState(w core.WindowInfo) photonic.WLState {
	led := t.led
	start := led.spans.now()
	led.spans.beginAt(layerController, start)
	next := t.inner.NextState(w)
	end := led.spans.now()
	led.spans.endAt(end)
	led.ctrlCalls++
	led.ctrlNs += end - start
	if next != w.Current {
		led.ctrlChanges++
	}
	return next
}
