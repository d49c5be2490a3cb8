package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mlkit"
	"repro/internal/photonic"
	"repro/internal/traffic"
)

// Ablations cover the design choices the paper reports evaluating but
// does not plot: the bandwidth-allocation step size (§III.B: 25% beat
// 6.25% and 12.5%), the brute-forced DBA occupancy bounds, the
// power-threshold balance (§III.C: "can be changed to favor either
// throughput or power"), the reservation-window sweep (§IV: "running the
// ML and dynamic power scaling model over several window sizes
// (100-2000)"), the feature-subset experiment (§IV.B: fewer features
// helped neither power nor throughput), and the label choice (§IV.A:
// packets injected beats buffer utilisation because utilisation is
// confounded by the current wavelength state).

// runDynMean evaluates a configuration across the suite's pairs,
// returning mean throughput (bits/cycle) and mean laser power (W).
func (s *Suite) runDynMean(cfg config.Config, ctrl controller.Controller) (thr, laser float64, err error) {
	results, err := parallelMap(len(s.Opts.Pairs), func(i int) (Result, error) {
		return runOne(pearlAt(cfg, s.Opts.Pairs[i], ctrl), s.Opts)
	})
	if err != nil {
		return 0, 0, err
	}
	for _, res := range results {
		thr += res.ThroughputBitsPerCycle()
		laser += res.Account.AverageLaserPowerW()
	}
	n := float64(len(s.Opts.Pairs))
	return thr / n, laser / n, nil
}

// AblationBandwidthStep sweeps the Algorithm 1 allocation granularity.
func (s *Suite) AblationBandwidthStep() (Table, error) {
	t := Table{
		Title:   "Ablation: DBA bandwidth step (minor-class share)",
		Columns: []string{"throughput", "CPU p99 lat"},
		Notes:   "paper §III.B: 25% allocation steps performed best among {6.25%, 12.5%, 25%}",
	}
	for _, step := range []float64{0.0625, 0.125, 0.25} {
		cfg := config.PEARLDyn()
		cfg.BandwidthStep = step
		var thr, p99 float64
		for _, pair := range s.Opts.Pairs {
			res, err := runOne(pearlAt(cfg, pair, nil), s.Opts)
			if err != nil {
				return Table{}, err
			}
			thr += res.ThroughputBitsPerCycle()
			p99 += res.Metrics.CPULatency.Percentile(99)
		}
		n := float64(len(s.Opts.Pairs))
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("step %.2f%%", step*100),
			Values: []float64{thr / n, p99 / n},
		})
	}
	return t, nil
}

// AblationDBABounds sweeps the brute-forced occupancy upper bounds around
// the paper's optimum (CPU 16%, GPU 6%).
func (s *Suite) AblationDBABounds() (Table, error) {
	t := Table{
		Title:   "Ablation: DBA occupancy upper bounds",
		Columns: []string{"throughput", "CPU lat", "GPU lat"},
		Notes:   "paper §III.B: brute force found CPU 16% / GPU 6% optimal on a separate benchmark set",
	}
	points := []struct{ cpu, gpu float64 }{
		{0.04, 0.06}, {0.16, 0.06}, {0.48, 0.06},
		{0.16, 0.02}, {0.16, 0.18},
	}
	for _, pt := range points {
		cfg := config.PEARLDyn()
		cfg.CPUUpperBound, cfg.GPUUpperBound = pt.cpu, pt.gpu
		var thr, cpuLat, gpuLat float64
		for _, pair := range s.Opts.Pairs {
			res, err := runOne(pearlAt(cfg, pair, nil), s.Opts)
			if err != nil {
				return Table{}, err
			}
			thr += res.ThroughputBitsPerCycle()
			cpuLat += res.Metrics.CPULatency.Mean()
			gpuLat += res.Metrics.GPULatency.Mean()
		}
		n := float64(len(s.Opts.Pairs))
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("CPU %.0f%% / GPU %.0f%%", pt.cpu*100, pt.gpu*100),
			Values: []float64{thr / n, cpuLat / n, gpuLat / n},
		})
	}
	return t, nil
}

// AblationThresholds scales the reactive power thresholds to favour
// throughput (lower thresholds, higher states) or power (higher
// thresholds, lower states).
func (s *Suite) AblationThresholds() (Table, error) {
	t := Table{
		Title:   "Ablation: reactive power-scaling thresholds (Dyn RW500)",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §III.C: thresholds balance throughput and power and can be shifted either way",
	}
	base := config.DefaultThresholds()
	for _, scale := range []float64{0.25, 0.5, 1, 2, 4} {
		cfg := config.DynRW(500)
		cfg.Thresholds = config.PowerThresholds{
			Lower:    base.Lower * scale,
			MidLower: base.MidLower * scale,
			MidUpper: base.MidUpper * scale,
			Upper:    clamp01(base.Upper * scale),
		}
		if cfg.Thresholds.MidUpper >= cfg.Thresholds.Upper {
			cfg.Thresholds.MidUpper = cfg.Thresholds.Upper * 0.75
			cfg.Thresholds.MidLower = cfg.Thresholds.Upper * 0.4
			cfg.Thresholds.Lower = cfg.Thresholds.Upper * 0.1
		}
		thr, laser, err := s.runDynMean(cfg, nil)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("thresholds x%.2f", scale),
			Values: []float64{thr, laser},
		})
	}
	return t, nil
}

func clamp01(v float64) float64 {
	if v > 0.95 {
		return 0.95
	}
	return v
}

// AblationWindowSweep reproduces the paper's 100-2000 reservation-window
// exploration for the reactive technique.
func (s *Suite) AblationWindowSweep() (Table, error) {
	t := Table{
		Title:   "Ablation: reactive reservation-window sweep",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §IV: windows 100-2000 were explored; 500 and 2000 picked for the headline results",
	}
	for _, window := range []int{100, 250, 500, 1000, 2000} {
		thr, laser, err := s.runDynMean(config.DynRW(window), nil)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("RW%d", window),
			Values: []float64{thr, laser},
		})
	}
	return t, nil
}

// AblationFeatureSubset trains on reduced Table III feature sets and
// compares validation quality — the paper's "we experimented with lesser
// features... results neither improved the power nor throughput".
func (s *Suite) AblationFeatureSubset() (Table, error) {
	t := Table{
		Title:   "Ablation: feature subsets (RW500 validation score)",
		Columns: []string{"features", "val score"},
		Notes:   "paper §IV.B kept all 30 features; subsets did not help",
	}
	randomPolicy := core.RandomPolicy{RNG: newAblationRNG(s.Opts.Seed)}
	train, err := CollectDataset(s.Opts.TrainPairs, 500, s.Opts, randomPolicy)
	if err != nil {
		return Table{}, err
	}
	val, err := CollectDataset(s.Opts.ValPairs, 500, s.Opts, randomPolicy)
	if err != nil {
		return Table{}, err
	}
	subsets := []struct {
		name string
		cols []int
	}{
		{"all 30", allColumns()},
		{"buffers only (2-5)", []int{
			features.FeatCPUCoreBufUtil, features.FeatCPUNetBufUtil,
			features.FeatGPUCoreBufUtil, features.FeatGPUNetBufUtil,
		}},
		{"counts only (7-13)", []int{
			features.FeatPktsToCore, features.FeatInFromRouters, features.FeatInFromCores,
			features.FeatRequestsSent, features.FeatRequestsRecv,
			features.FeatResponsesSent, features.FeatResponsesRecv,
		}},
		{"no per-source (1-13,30)", firstNPlusWL(13)},
	}
	for _, sub := range subsets {
		_, _, score, err := mlkit.TuneLambda(train.Select(sub.cols), val.Select(sub.cols), mlkit.DefaultLambdas())
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  sub.name,
			Values: []float64{float64(len(sub.cols)), score},
		})
	}
	return t, nil
}

func allColumns() []int {
	cols := make([]int, features.Count)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func firstNPlusWL(n int) []int {
	cols := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		cols = append(cols, i)
	}
	return append(cols, features.FeatWavelengths)
}

// AblationLabelChoice compares the paper's label (packets injected next
// window) against the rejected alternative (next-window buffer
// utilisation, which is confounded by the current wavelength state —
// §IV.A's argument). Both models deploy through their natural state
// mapping and are judged on throughput and power.
func (s *Suite) AblationLabelChoice() (Table, error) {
	t := Table{
		Title:   "Ablation: ML label choice (RW500 deployment)",
		Columns: []string{"throughput", "laser W"},
		Notes:   "paper §IV.A: predicting injections decouples the label from the wavelength state; utilisation does not",
	}
	// Packets-injected label: the standard pipeline.
	mlCtrl, err := s.controllerFor(config.MLRW(500, true))
	if err != nil {
		return Table{}, err
	}
	thr, laser, err := s.runDynMean(config.MLRW(500, true), mlCtrl)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, Row{Label: "packets injected (paper)", Values: []float64{thr, laser}})

	// Buffer-utilisation label: collect (features, next-window beta),
	// fit, deploy through the reactive threshold ladder.
	betaModel, err := trainBetaModel(s.Opts)
	if err != nil {
		return Table{}, err
	}
	cfg := config.MLRW(500, true)
	betaPolicy := betaStatePolicy{model: betaModel, thresholds: cfg.Thresholds, allow8: cfg.Allow8WL}
	var thrB, laserB float64
	for _, pair := range s.Opts.Pairs {
		res, err := runWithPolicy(cfg, pair, s.Opts, betaPolicy)
		if err != nil {
			return Table{}, err
		}
		thrB += res.ThroughputBitsPerCycle()
		laserB += res.Account.AverageLaserPowerW()
	}
	n := float64(len(s.Opts.Pairs))
	t.Rows = append(t.Rows, Row{Label: "buffer utilisation (rejected)", Values: []float64{thrB / n, laserB / n}})
	return t, nil
}

// betaStatePolicy maps a predicted next-window occupancy through the
// Algorithm 1 threshold ladder.
type betaStatePolicy struct {
	model      *mlkit.Ridge
	thresholds config.PowerThresholds
	allow8     bool
}

func (p betaStatePolicy) NextState(w core.WindowInfo) photonic.WLState {
	pred := p.model.Predict(w.Features)
	return core.StateForOccupancy(pred, p.thresholds, p.allow8)
}

// trainBetaModel fits a ridge on (features, next-window mean occupancy).
func trainBetaModel(opts Options) (*mlkit.Ridge, error) {
	randomPolicy := core.RandomPolicy{RNG: newAblationRNG(opts.Seed ^ 0xbe7a)}
	ds := mlkit.NewDataset(core.FeatureCount)
	for i, pair := range opts.TrainPairs {
		if err := collectBeta(ds, pair, opts, randomPolicy, opts.Seed+uint64(i)*104729); err != nil {
			return nil, err
		}
	}
	x, y := ds.Design()
	m := &mlkit.Ridge{Lambda: 1}
	if err := m.Fit(x, y); err != nil {
		return nil, err
	}
	return m, nil
}

func collectBeta(ds *mlkit.Dataset, pair traffic.Pair, opts Options, policy core.StatePolicy, seed uint64) error {
	engine := newEngine()
	cfg := config.MLRW(500, false)
	net, err := core.New(engine, cfg)
	if err != nil {
		return err
	}
	net.SetStatePolicy(policy)
	w, err := traffic.NewWorkload(engine, net, pair, runSeed(seed, pair.Name()))
	if err != nil {
		return err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	prev := make(map[int][]float64, config.NumRouters)
	net.SetWindowHook(func(router int, feats []float64, _ int64, beta float64, _ photonic.WLState) {
		if p, ok := prev[router]; ok {
			ds.Add(p, beta)
		}
		prev[router] = feats
	})
	engine.Run(opts.WarmupCycles + opts.CollectCycles)
	return nil
}

// runWithPolicy runs a photonic configuration under an explicit state
// policy (used by the label-choice ablation).
func runWithPolicy(cfg config.Config, pair traffic.Pair, opts Options, policy core.StatePolicy) (Result, error) {
	engine := newEngine()
	net, err := core.New(engine, cfg)
	if err != nil {
		return Result{}, err
	}
	net.SetStatePolicy(policy)
	acct := newAccount()
	net.SetAccount(acct)
	w, err := traffic.NewWorkload(engine, net, pair, runSeed(opts.Seed, pair.Name()))
	if err != nil {
		return Result{}, err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(opts.WarmupCycles)
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(opts.MeasureCycles)
	net.StopMeasurement(opts.MeasureCycles)
	return Result{
		Name: cfg.Name(), Pair: pair, Metrics: net.Metrics(), Account: acct,
		InjectedCPUShare: w.Injected.Share(0), Retired: w.Retired,
	}, nil
}
