// Package experiments reproduces every table and figure from the paper's
// evaluation (§IV): the Figure 5 energy-per-bit sweep, the Figure 6/7
// throughput and laser-power comparison of the power-scaling
// architectures, the Figure 8 wavelength-state residency breakdown, the
// Figure 9/10 throughput comparisons, the Figure 11 laser turn-on
// sensitivity study, the Figure 4 workload characterisation, and the
// §IV.C NRMSE prediction-quality numbers. It also hosts the two-pass ML
// training pipeline of §IV.A.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Options bound the cost and fidelity of an experiment run.
type Options struct {
	// Seed drives all randomness; identical options produce identical
	// results.
	Seed uint64
	// WarmupCycles run before measurement starts.
	WarmupCycles int64
	// MeasureCycles are recorded.
	MeasureCycles int64
	// Pairs are the benchmark pairs figures report on (the paper's 16
	// test pairs by default).
	Pairs []traffic.Pair
	// TrainPairs and ValPairs feed the ML pipeline.
	TrainPairs, ValPairs []traffic.Pair
	// CollectCycles is the per-pair length of each data-collection pass.
	CollectCycles int64
	// OnWindow, when non-nil, receives one WindowStats per reservation
	// window of the measurement phase as the run executes (plus a final
	// partial window when MeasureCycles is not a multiple of the
	// window). The hook runs on the simulation goroutine between cycles:
	// it must not block, and it must not touch the engine. Leaving it
	// nil keeps the run byte-identical to one without observation.
	OnWindow func(WindowStats)
	// OnWindowSample, when non-nil, receives every router's raw
	// reservation-window observation on PEARL runs: the Table III
	// feature snapshot and the 128-bit flits injected during the closing
	// window (the label for the *previous* window's features, matching
	// the training pipeline's pairing). pearld's canary retrainer feeds
	// on this. Same discipline as OnWindow: simulation goroutine, must
	// not block, nil keeps the run byte-identical.
	OnWindowSample func(routerID int, feats []float64, injected int64)
}

// Full returns the paper-faithful option set: all 16 test pairs, all 36
// training pairs, 30k measured cycles.
func Full() Options {
	return Options{
		Seed:          2018,
		WarmupCycles:  2000,
		MeasureCycles: 60000,
		Pairs:         traffic.TestPairs(),
		TrainPairs:    traffic.TrainingPairs(),
		ValPairs:      traffic.ValidationPairs(),
		CollectCycles: 40000,
	}
}

// Quick returns a reduced option set for tests and smoke runs: 4 test
// pairs, 6 training pairs, shorter windows of simulation.
func Quick() Options {
	o := Full()
	o.MeasureCycles = 20000
	o.CollectCycles = 20000
	o.Pairs = o.Pairs[:4]
	o.TrainPairs = o.TrainPairs[:6]
	o.ValPairs = o.ValPairs[:2]
	return o
}

// Result is everything one simulation run yields.
type Result struct {
	// Name is the configuration label (paper naming).
	Name string
	// Pair is the benchmark pair that drove the run.
	Pair traffic.Pair
	// Metrics are the delivered-traffic statistics.
	Metrics *stats.Network
	// Account is the energy/power accounting.
	Account *power.Account
	// InjectedCPUShare is the Figure 4 class breakdown of injected
	// packets.
	InjectedCPUShare float64
	// Retired counts completed request-response round trips.
	Retired uint64
	// TurnOnStalls counts laser stabilisation stalls (photonic only).
	TurnOnStalls uint64
}

// ThroughputBitsPerCycle is the headline throughput metric.
func (r Result) ThroughputBitsPerCycle() float64 { return r.Metrics.ThroughputBitsPerCycle() }

// runCtxChunk is how many cycles execute between context checks in the
// context-aware entry points: small enough that cancellation lands well
// inside a client poll interval, large enough to stay off the hot path.
const runCtxChunk = 1024

// runCycles drives the engine for n cycles in bounded chunks, checking
// ctx between chunks so a cancelled or timed-out run stops within
// ~runCtxChunk cycles instead of completing the whole window.
func runCycles(ctx context.Context, engine *sim.Engine, n int64) error {
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := int64(runCtxChunk)
		if step > remaining {
			step = remaining
		}
		engine.Run(step)
		remaining -= step
	}
	// All n cycles completed: the result is fully computed, so a
	// cancellation that lands between the final chunk and this return
	// must not discard it.
	return nil
}

// replica is one fully constructed simulation stack — engine, network,
// workload, power account and optional window sampler — ready to run.
// Both the single-run entry points and the lockstep replicated runner
// build their stacks through the same replica builders, so the two
// paths cannot drift: a replica stepped alone IS a single run.
type replica struct {
	engine       *sim.Engine
	startMeasure func()
	stopMeasure  func(measured int64)
	finalize     func() Result
}

// buildPEARLReplica constructs one photonic simulation stack. opts.Seed
// is used as-is (the replicated runner substitutes derived per-replica
// seeds before calling); tab, when non-nil, shares an exp(-rate) memo
// with other replicas on the same goroutine. ctrl may be nil, in which
// case the configuration's registered controller is built with no model
// artifact (model-needing policies then fail construction here, before
// any simulation state exists).
func buildPEARLReplica(cfg config.Config, pair traffic.Pair, opts Options, ctrl controller.Controller, tab *traffic.ExpTable) (replica, error) {
	engine := sim.NewEngine()
	net, err := core.New(engine, cfg)
	if err != nil {
		return replica{}, err
	}
	if ctrl == nil {
		ctrl, err = controller.New(cfg, nil)
		if err != nil {
			return replica{}, err
		}
	}
	wseed := runSeed(opts.Seed, cfg.Name(), pair.Name())
	pol, err := ctrl.Policy(wseed)
	if err != nil {
		return replica{}, err
	}
	net.SetStatePolicy(pol)
	if opts.OnWindowSample != nil {
		sample := opts.OnWindowSample
		net.SetWindowHook(func(routerID int, feats []float64, injected int64, _ float64, _ photonic.WLState) {
			sample(routerID, feats, injected)
		})
	}
	acct := power.NewAccount(config.NetworkFrequencyHz)
	net.SetAccount(acct)
	w, err := traffic.NewWorkloadWithExpTable(engine, net, pair, wseed, tab)
	if err != nil {
		return replica{}, err
	}
	var sampler *windowSampler
	if opts.OnWindow != nil {
		sampler = newWindowSampler(opts.OnWindow, net, acct,
			int64(cfg.ReservationWindow), config.NetworkFrequencyHz)
		net.SetDeliveryHandler(sampler.wrapDeliver(w.OnDeliver))
	} else {
		net.SetDeliveryHandler(w.OnDeliver)
	}
	engine.Register(w)
	engine.Register(net)
	if sampler != nil {
		// After the network: the sampler reads each cycle's settled state.
		engine.Register(sampler)
	}
	return replica{
		engine: engine,
		startMeasure: func() {
			net.StartMeasurement()
			w.StartMeasurement()
			if sampler != nil {
				sampler.start(engine.Cycle())
			}
		},
		stopMeasure: func(measured int64) {
			net.StopMeasurement(measured)
			w.StopMeasurement()
			if sampler != nil {
				sampler.finish(engine.Cycle())
			}
		},
		finalize: func() Result {
			return Result{
				Name:             cfg.Name(),
				Pair:             pair,
				Metrics:          net.Metrics(),
				Account:          acct,
				InjectedCPUShare: w.Injected.Share(0),
				Retired:          w.Retired,
				TurnOnStalls:     net.AuxCounters().TurnOnStalls,
			}
		},
	}, nil
}

// RunPEARL simulates one photonic configuration on one benchmark pair.
// ctrl may be nil for any configuration whose registered controller
// needs no model artifact; model-needing configurations must pass a
// controller built via controller.New with their artifact.
func RunPEARL(cfg config.Config, pair traffic.Pair, opts Options, ctrl controller.Controller) (Result, error) {
	return RunPEARLCtx(context.Background(), cfg, pair, opts, ctrl)
}

// RunPEARLCtx is RunPEARL with cooperative cancellation: the simulation
// aborts between cycle chunks once ctx is cancelled or its deadline
// passes, returning the context error. This is the entry point pearld's
// worker pool uses for in-flight job cancellation.
func RunPEARLCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, ctrl controller.Controller) (Result, error) {
	r, err := buildPEARLReplica(cfg, pair, opts, ctrl, nil)
	if err != nil {
		return Result{}, err
	}
	return runReplica(ctx, r, opts)
}

// runReplica drives one built stack through warmup and measurement.
func runReplica(ctx context.Context, r replica, opts Options) (Result, error) {
	if err := runCycles(ctx, r.engine, opts.WarmupCycles); err != nil {
		return Result{}, err
	}
	r.startMeasure()
	if err := runCycles(ctx, r.engine, opts.MeasureCycles); err != nil {
		return Result{}, err
	}
	r.stopMeasure(opts.MeasureCycles)
	return r.finalize(), nil
}

// buildCMESHReplica constructs one electrical-baseline stack (see
// buildPEARLReplica for the seed and exp-table conventions).
func buildCMESHReplica(cfg config.Config, pair traffic.Pair, opts Options, linkScale int, tab *traffic.ExpTable) (replica, error) {
	engine := sim.NewEngine()
	net, err := cmesh.New(engine, cfg)
	if err != nil {
		return replica{}, err
	}
	net.SetLinkScale(linkScale)
	acct := power.NewAccount(config.NetworkFrequencyHz)
	net.SetAccount(acct)
	name := CMESHName(linkScale)
	w, err := traffic.NewWorkloadWithExpTable(engine, net, pair, runSeed(opts.Seed, name, pair.Name()), tab)
	if err != nil {
		return replica{}, err
	}
	var sampler *windowSampler
	if opts.OnWindow != nil {
		// The electrical mesh has no reservation windows of its own; the
		// configured window length just sets the sampling cadence so both
		// backends stream comparable frames.
		sampler = newWindowSampler(opts.OnWindow, net, acct,
			int64(cfg.ReservationWindow), config.NetworkFrequencyHz)
		net.SetDeliveryHandler(sampler.wrapDeliver(w.OnDeliver))
	} else {
		net.SetDeliveryHandler(w.OnDeliver)
	}
	engine.Register(w)
	engine.Register(net)
	if sampler != nil {
		engine.Register(sampler)
	}
	return replica{
		engine: engine,
		startMeasure: func() {
			net.StartMeasurement()
			w.StartMeasurement()
			if sampler != nil {
				sampler.start(engine.Cycle())
			}
		},
		stopMeasure: func(measured int64) {
			net.StopMeasurement(measured)
			w.StopMeasurement()
			if sampler != nil {
				sampler.finish(engine.Cycle())
			}
		},
		finalize: func() Result {
			return Result{
				Name:             name,
				Pair:             pair,
				Metrics:          net.Metrics(),
				Account:          acct,
				InjectedCPUShare: w.Injected.Share(0),
				Retired:          w.Retired,
			}
		},
	}, nil
}

// CMESHName is the configuration label CMESH runs report (and the name
// folded into their workload seed derivation).
func CMESHName(linkScale int) string {
	if linkScale > 1 {
		return fmt.Sprintf("CMESH(1/%d bw)", linkScale)
	}
	return "CMESH"
}

// RunCMESH simulates the electrical baseline on one benchmark pair.
// linkScale narrows links for the Figure 5 bandwidth-matched points
// (1 = 64WL-equivalent bisection).
func RunCMESH(cfg config.Config, pair traffic.Pair, opts Options, linkScale int) (Result, error) {
	return RunCMESHCtx(context.Background(), cfg, pair, opts, linkScale)
}

// RunCMESHCtx is RunCMESH with cooperative cancellation (see RunPEARLCtx).
func RunCMESHCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, linkScale int) (Result, error) {
	r, err := buildCMESHReplica(cfg, pair, opts, linkScale, nil)
	if err != nil {
		return Result{}, err
	}
	return runReplica(ctx, r, opts)
}

// runSeed derives a deterministic per-run seed from the experiment seed,
// configuration and pair so every configuration sees the same workload
// randomness for a given pair (paired comparison), while different pairs
// differ. The configuration name is intentionally excluded from workload
// seeding: identical pair -> identical demand sequence.
func runSeed(seed uint64, _ string, pairName string) uint64 {
	h := seed
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b) // FNV-style fold
	}
	return h
}

// newEngine and newAccount centralise construction for the ablation
// helpers.
func newEngine() *sim.Engine { return sim.NewEngine() }

func newAccount() *power.Account { return power.NewAccount(config.NetworkFrequencyHz) }

// newAblationRNG derives a deterministic stream for ablation policies.
func newAblationRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed ^ 0xab1a) }
