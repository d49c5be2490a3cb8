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
	"errors"
	"fmt"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/noc"
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

// Backends a Point can name.
const (
	BackendPEARL = "pearl"
	BackendCMESH = "cmesh"
)

// Point is one (configuration, workload pair) evaluation: the unit Run
// simulates, a figure sweep expands into, pearld schedules as a job and
// `pearlbench -sweep` exports as a cache-warming artifact.
type Point struct {
	// Label is the row label a figure prints for the point; it may carry
	// more than the configuration name (Fig. 11 adds the turn-on time).
	Label string
	// Backend is BackendPEARL (photonic) or BackendCMESH (electrical
	// baseline).
	Backend string
	// Config fully describes the network build.
	Config config.Config
	// LinkScale narrows CMESH links for bandwidth-matched baselines;
	// values below 1 mean full bandwidth. The pearl backend ignores it.
	LinkScale int
	// Pair is the CPU+GPU benchmark pair driving the run.
	Pair traffic.Pair
	// Controller drives the point's wavelength-state policy. nil means
	// the config's registered controller with no model artifact, so
	// model-needing points must be filled by the caller (pearld resolves
	// its registry; pearlbench loads -model files) or they fail at run
	// time.
	Controller controller.Controller
}

// canonical is the one place a point's identity is resolved: its
// canonical configuration name (the name results report, replica seed
// fans fold in and pearld's job status shows) and its effective CMESH
// link scale, with scales below 1 meaning full bandwidth.
func (p Point) canonical() (name string, linkScale int) {
	if p.Backend != BackendCMESH {
		return p.Config.Name(), 1
	}
	if p.LinkScale > 1 {
		return fmt.Sprintf("CMESH(1/%d bw)", p.LinkScale), p.LinkScale
	}
	return "CMESH", 1
}

// Name is the point's canonical configuration name: the paper's label
// for photonic points, CMESH with its bandwidth fraction for electrical
// ones.
func (p Point) Name() string {
	name, _ := p.canonical()
	return name
}

// CMESHName is the canonical name of a CMESH point at linkScale.
func CMESHName(linkScale int) string {
	return Point{Backend: BackendCMESH, LinkScale: linkScale}.Name()
}

// pearlAt and cmeshAt are shorthand for the points the figure suite
// evaluates; ctrl may be nil (see Point.Controller).
func pearlAt(cfg config.Config, pair traffic.Pair, ctrl controller.Controller) Point {
	return Point{Label: cfg.Name(), Backend: BackendPEARL, Config: cfg, LinkScale: 1, Pair: pair, Controller: ctrl}
}

func cmeshAt(linkScale int, pair traffic.Pair) Point {
	p := Point{Backend: BackendCMESH, Config: config.Default(), LinkScale: linkScale, Pair: pair}
	p.Label = p.Name()
	return p
}

// Run simulates one point once per seed and returns the Results in seed
// order; nil seeds means {opts.Seed}. seeds[i] becomes that run's
// Options.Seed verbatim (callers wanting the standard fan pass
// ReplicaSeeds), and results[i] is bit-identical to Run over seeds[i]
// alone.
//
// When the point may replicate (see CanReplicate) every seed's stack
// steps in one lockstep engine spread across cores; otherwise each seed
// runs as its own one-replica lockstep, in order. opts.OnWindow and
// opts.OnWindowSample observe seeds[0] only, from a worker goroutine.
// The run checks ctx between cycle chunks and returns the context error
// once it is done, unless every cycle had already run.
func Run(ctx context.Context, p Point, opts Options, seeds []uint64) ([]Result, error) {
	if seeds == nil {
		seeds = []uint64{opts.Seed}
	}
	if len(seeds) == 0 {
		return nil, errors.New("experiments: Run needs at least one seed")
	}
	if CanReplicate(p) == nil {
		return runLockstep(ctx, p, opts, seeds)
	}
	results := make([]Result, len(seeds))
	for i, seed := range seeds {
		one, err := runLockstep(ctx, p, opts, []uint64{seed})
		if err != nil {
			return nil, err
		}
		results[i] = one[0]
		opts.OnWindow, opts.OnWindowSample = nil, nil
	}
	return results, nil
}

// network is what buildReplica wires on either backend's network.
type network interface {
	sim.Component
	traffic.Target
	windowSource
	SetAccount(*power.Account)
	SetDeliveryHandler(func(p *noc.Packet, cycle int64))
	StartMeasurement()
	StopMeasurement(measuredCycles int64)
}

// replica is one fully constructed simulation stack — engine, network,
// workload, power account and optional window sampler — ready to run.
type replica struct {
	name    string
	pair    traffic.Pair
	engine  *sim.Engine
	net     network
	w       *traffic.Workload
	acct    *power.Account
	sampler *windowSampler
	// stalls reads the laser stabilisation stall count (photonic only).
	stalls func() uint64
}

// buildReplica constructs one simulation stack for p at opts.Seed. tab,
// when non-nil, shares an exp(-rate) memo with other replicas on the
// same goroutine. A pearl point's Controller must be set (newLockstep
// resolves nil to the config's registered controller).
func buildReplica(p Point, opts Options, tab *traffic.ExpTable) (replica, error) {
	name, linkScale := p.canonical()
	wseed := runSeed(opts.Seed, p.Pair.Name())
	r := replica{name: name, pair: p.Pair, engine: sim.NewEngine(), stalls: func() uint64 { return 0 }}
	switch p.Backend {
	case BackendPEARL:
		net, err := core.New(r.engine, p.Config)
		if err != nil {
			return replica{}, err
		}
		pol, err := p.Controller.Policy(wseed)
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
		r.net = net
		r.stalls = func() uint64 { return net.AuxCounters().TurnOnStalls }
	case BackendCMESH:
		net, err := cmesh.New(r.engine, p.Config)
		if err != nil {
			return replica{}, err
		}
		net.SetLinkScale(linkScale)
		r.net = net
	default:
		return replica{}, fmt.Errorf("experiments: unknown backend %q (want %q or %q)", p.Backend, BackendPEARL, BackendCMESH)
	}
	r.acct = power.NewAccount(config.NetworkFrequencyHz)
	r.net.SetAccount(r.acct)
	w, err := traffic.NewWorkloadWithExpTable(r.engine, r.net, p.Pair, wseed, tab)
	if err != nil {
		return replica{}, err
	}
	r.w = w
	if opts.OnWindow != nil {
		// The electrical mesh has no reservation windows of its own; the
		// configured window length just sets its sampling cadence so both
		// backends stream comparable frames.
		r.sampler = newWindowSampler(opts.OnWindow, r.net, r.acct,
			int64(p.Config.ReservationWindow), config.NetworkFrequencyHz)
		r.net.SetDeliveryHandler(r.sampler.wrapDeliver(w.OnDeliver))
	} else {
		r.net.SetDeliveryHandler(w.OnDeliver)
	}
	r.engine.Register(w)
	r.engine.Register(r.net)
	if r.sampler != nil {
		// After the network: the sampler reads each cycle's settled state.
		r.engine.Register(r.sampler)
	}
	return r, nil
}

func (r *replica) startMeasure() {
	r.net.StartMeasurement()
	r.w.StartMeasurement()
	if r.sampler != nil {
		r.sampler.start(r.engine.Cycle())
	}
}

func (r *replica) stopMeasure(measured int64) {
	r.net.StopMeasurement(measured)
	r.w.StopMeasurement()
	if r.sampler != nil {
		r.sampler.finish(r.engine.Cycle())
	}
}

func (r *replica) result() Result {
	return Result{
		Name:             r.name,
		Pair:             r.pair,
		Metrics:          r.net.Metrics(),
		Account:          r.acct,
		InjectedCPUShare: r.w.Injected.Share(0),
		Retired:          r.w.Retired,
		TurnOnStalls:     r.stalls(),
	}
}

// runSeed derives a deterministic per-run workload seed from the
// experiment seed and the pair alone, so every configuration sees the
// same workload randomness for a given pair (paired comparison), while
// different pairs differ: identical pair -> identical demand sequence.
func runSeed(seed uint64, pairName string) uint64 {
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

// runOne runs p once at opts.Seed: the figure suite's one-seed Run.
func runOne(p Point, opts Options) (Result, error) {
	results, err := Run(context.Background(), p, opts, nil)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}
