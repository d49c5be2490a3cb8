package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/models"
	"repro/internal/photonic"
	"repro/internal/traffic"
)

// Table is a generic figure/table result: ordered columns, one row per
// configuration or benchmark pair.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	// Notes carries the paper's headline claim for eyeballing the shape.
	Notes string
}

// Row is one labelled result line.
type Row struct {
	Label  string
	Values []float64
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-28s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%16.4f", v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Value looks up a cell by row label and column name.
func (t Table) Value(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Suite caches trained ML model artifacts and shares Options across
// the figure drivers so one invocation reproduces the whole evaluation
// coherently. Pre-trained artifacts (from pearltrain files or a pearld
// registry) can be injected with SetModel; windows without one are
// trained on demand.
type Suite struct {
	Opts   Options
	models map[int]*models.Artifact

	// scalingThr/scalingPow cache the Figure 6/7 sweep, which both
	// figures share.
	scalingThr, scalingPow *Table
}

// NewSuite returns a suite with the given options.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts, models: make(map[int]*models.Artifact)}
}

// SetModel registers a pre-trained artifact for its window, so the
// ML figures serve it instead of training inline.
func (s *Suite) SetModel(a *models.Artifact) {
	s.models[a.Window] = a
}

// Model returns the artifact for a window size, training one (once)
// when none was injected.
func (s *Suite) Model(window int) (*models.Artifact, error) {
	if m, ok := s.models[window]; ok {
		return m, nil
	}
	m, err := Train(window, s.Opts)
	if err != nil {
		return nil, err
	}
	s.models[window] = m
	return m, nil
}

// controllerFor builds the configuration's registered controller,
// training (or fetching) the suite's model artifact first when the
// controller needs one.
func (s *Suite) controllerFor(cfg config.Config) (controller.Controller, error) {
	var art *models.Artifact
	if spec, ok := controller.ForPower(cfg.Power); ok && spec.Caps.NeedsModel {
		m, err := s.Model(cfg.ReservationWindow)
		if err != nil {
			return nil, err
		}
		art = m
	}
	return controller.New(cfg, art)
}

// meanOverPairs runs fn per pair (in parallel) and averages the returned
// metric.
func meanOverPairs(pairs []traffic.Pair, fn func(traffic.Pair) (float64, error)) (float64, error) {
	if len(pairs) == 0 {
		return 0, fmt.Errorf("experiments: no pairs")
	}
	vals, err := parallelMap(len(pairs), func(i int) (float64, error) { return fn(pairs[i]) })
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(pairs)), nil
}

// Figure4 reproduces the CPU-GPU packet breakdown per benchmark pair:
// the share of injected packets from each core type under PEARL-Dyn.
func (s *Suite) Figure4() (Table, error) {
	t := Table{
		Title:   "Figure 4: CPU-GPU packet breakdown per traffic pair",
		Columns: []string{"CPU %", "GPU %"},
		Notes:   "CPU benchmarks create more packets than GPU overall; DBA keeps allocation demand-driven",
	}
	results, err := parallelMap(len(s.Opts.Pairs), func(i int) (Result, error) {
		return runOne(pearlAt(config.PEARLDyn(), s.Opts.Pairs[i], nil), s.Opts)
	})
	if err != nil {
		return Table{}, err
	}
	for _, res := range results {
		cpu := res.InjectedCPUShare * 100
		t.Rows = append(t.Rows, Row{Label: res.Pair.Name(), Values: []float64{cpu, 100 - cpu}})
	}
	return t, nil
}

// Figure5 reproduces the energy-per-bit comparison of PEARL-Dyn,
// PEARL-FCFS and bandwidth-matched CMESH at 64, 32 and 16 wavelengths.
func (s *Suite) Figure5() (Table, error) {
	t := Table{
		Title:   "Figure 5: energy per bit (pJ/bit)",
		Columns: []string{"64WL-eq", "32WL-eq", "16WL-eq"},
		Notes:   "PEARL-Dyn undercuts PEARL-FCFS and decisively undercuts CMESH as bandwidth is constrained",
	}
	type variant struct {
		label string
		run   func(wl, scale int, pair traffic.Pair) (Result, error)
	}
	variants := []variant{
		{"PEARL-Dyn", func(wl, _ int, pair traffic.Pair) (Result, error) {
			return runOne(pearlAt(config.StaticWL(wl), pair, nil), s.Opts)
		}},
		{"PEARL-FCFS", func(wl, _ int, pair traffic.Pair) (Result, error) {
			cfg := config.StaticWL(wl)
			cfg.Bandwidth = config.PolicyFCFS
			return runOne(pearlAt(cfg, pair, nil), s.Opts)
		}},
		{"CMESH", func(_, scale int, pair traffic.Pair) (Result, error) {
			return runOne(cmeshAt(scale, pair), s.Opts)
		}},
	}
	points := []struct{ wl, scale int }{{64, 1}, {32, 2}, {16, 4}}
	for _, v := range variants {
		row := Row{Label: v.label}
		for _, pt := range points {
			mean, err := meanOverPairs(s.Opts.Pairs, func(pair traffic.Pair) (float64, error) {
				res, err := v.run(pt.wl, pt.scale, pair)
				if err != nil {
					return 0, err
				}
				return res.Account.EnergyPerBitJ() * 1e12, nil
			})
			if err != nil {
				return Table{}, err
			}
			row.Values = append(row.Values, mean)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// powerScalingConfigs are the Figure 6/7 comparison set: the paper's
// architectures plus the related-work comparison controllers.
func (s *Suite) powerScalingConfigs() ([]config.Config, error) {
	return []config.Config{
		config.PEARLDyn(), // 64WL baseline
		config.DynRW(500),
		config.DynRW(2000),
		config.MLRW(500, true),
		config.MLRW(500, false),
		config.MLRW(2000, true),
		config.ProteusRW(500),
		config.D3NOCRW(500),
	}, nil
}

// runScalingSet evaluates every Figure 6/7 configuration, returning mean
// throughput (bits/cycle) and mean laser power (W) per configuration.
// Results are cached on the suite.
func (s *Suite) runScalingSet() (Table, Table, error) {
	if s.scalingThr != nil && s.scalingPow != nil {
		return *s.scalingThr, *s.scalingPow, nil
	}
	thr, pow, err := s.runScalingSetUncached()
	if err != nil {
		return Table{}, Table{}, err
	}
	s.scalingThr, s.scalingPow = &thr, &pow
	return thr, pow, nil
}

func (s *Suite) runScalingSetUncached() (Table, Table, error) {
	thr := Table{
		Title:   "Figure 6: throughput of power-scaling architectures (bits/cycle)",
		Columns: []string{"throughput", "vs 64WL %"},
		Notes:   "paper: ML RW2000 -0.3%, Dyn RW500 -1.3%, Dyn RW2000 -8%, ML RW500 -14%",
	}
	pow := Table{
		Title:   "Figure 7: average laser power (W)",
		Columns: []string{"laser W", "savings %"},
		Notes:   "paper: ML RW500 65.5%, ML RW500-no8WL 60.7%, Dyn RW2000 55.8%, Dyn RW500 46%, ML RW2000 42% savings",
	}
	cfgs, err := s.powerScalingConfigs()
	if err != nil {
		return Table{}, Table{}, err
	}
	type point struct {
		name       string
		throughput float64
		laser      float64
	}
	var points []point
	for _, cfg := range cfgs {
		ctrl, err := s.controllerFor(cfg)
		if err != nil {
			return Table{}, Table{}, err
		}
		results, err := parallelMap(len(s.Opts.Pairs), func(i int) (Result, error) {
			return runOne(pearlAt(cfg, s.Opts.Pairs[i], ctrl), s.Opts)
		})
		if err != nil {
			return Table{}, Table{}, err
		}
		var thrSum, powSum float64
		for _, res := range results {
			thrSum += res.ThroughputBitsPerCycle()
			powSum += res.Account.AverageLaserPowerW()
		}
		n := float64(len(s.Opts.Pairs))
		points = append(points, point{cfg.Name(), thrSum / n, powSum / n})
	}
	base := points[0]
	for _, p := range points {
		thr.Rows = append(thr.Rows, Row{Label: p.name, Values: []float64{
			p.throughput, 100 * (p.throughput - base.throughput) / base.throughput,
		}})
		pow.Rows = append(pow.Rows, Row{Label: p.name, Values: []float64{
			p.laser, 100 * (base.laser - p.laser) / base.laser,
		}})
	}
	return thr, pow, nil
}

// Figure6 reproduces the throughput comparison with the 8WL low state.
func (s *Suite) Figure6() (Table, error) {
	thr, _, err := s.runScalingSet()
	return thr, err
}

// Figure7 reproduces the average laser power comparison.
func (s *Suite) Figure7() (Table, error) {
	_, pow, err := s.runScalingSet()
	return pow, err
}

// Figure8 reproduces the wavelength-state residency of ML-based power
// scaling for RW500 (a) and RW2000 (b).
func (s *Suite) Figure8() (Table, error) {
	t := Table{
		Title:   "Figure 8: % of time in each wavelength state (ML power scaling)",
		Columns: []string{"8WL", "16WL", "32WL", "48WL", "64WL"},
		Notes:   "paper: ML RW2000 spends just under 30% in the 64WL state",
	}
	for _, window := range []int{500, 2000} {
		cfg := config.MLRW(window, true)
		ctrl, err := s.controllerFor(cfg)
		if err != nil {
			return Table{}, err
		}
		results, err := parallelMap(len(s.Opts.Pairs), func(i int) (Result, error) {
			return runOne(pearlAt(cfg, s.Opts.Pairs[i], ctrl), s.Opts)
		})
		if err != nil {
			return Table{}, err
		}
		counts := map[int]float64{}
		var total float64
		for _, res := range results {
			res0 := res.Metrics.StateResidency
			for _, k := range res0.Keys() {
				counts[k] += res0.Fraction(k)
			}
			total++
		}
		row := Row{Label: fmt.Sprintf("ML RW%d", window)}
		for _, wl := range []int{8, 16, 32, 48, 64} {
			row.Values = append(row.Values, 100*counts[wl]/total)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure9 reproduces the RW500 no-8WL throughput comparison against the
// photonic and electrical baselines.
func (s *Suite) Figure9() (Table, error) {
	t := Table{
		Title:   "Figure 9: throughput, RW500 without 8WL low state (bits/cycle)",
		Columns: []string{"throughput", "vs CMESH %"},
		Notes:   "paper: dynamic and ML power scaling outperform CMESH by 34% and 20%; Dyn RW500 ~= PEARL-FCFS",
	}
	mlCtrl, err := s.controllerFor(config.MLRW(500, false))
	if err != nil {
		return Table{}, err
	}
	type entry struct {
		name string
		run  func(pair traffic.Pair) (Result, error)
	}
	entries := []entry{
		{"PEARL-Dyn(64WL)", func(p traffic.Pair) (Result, error) { return runOne(pearlAt(config.PEARLDyn(), p, nil), s.Opts) }},
		{"PEARL-FCFS(64WL)", func(p traffic.Pair) (Result, error) { return runOne(pearlAt(config.PEARLFCFS(), p, nil), s.Opts) }},
		{"Dyn RW500", func(p traffic.Pair) (Result, error) {
			cfg := config.DynRW(500)
			cfg.Allow8WL = false
			return runOne(pearlAt(cfg, p, nil), s.Opts)
		}},
		{"ML RW500 no8WL", func(p traffic.Pair) (Result, error) {
			return runOne(pearlAt(config.MLRW(500, false), p, mlCtrl), s.Opts)
		}},
		{"PROTEUS RW500", func(p traffic.Pair) (Result, error) {
			return runOne(pearlAt(config.ProteusRW(500), p, nil), s.Opts)
		}},
		{"D3NOC RW500", func(p traffic.Pair) (Result, error) {
			return runOne(pearlAt(config.D3NOCRW(500), p, nil), s.Opts)
		}},
		{"CMESH", func(p traffic.Pair) (Result, error) { return runOne(cmeshAt(1, p), s.Opts) }},
	}
	var values []float64
	for _, e := range entries {
		mean, err := meanOverPairs(s.Opts.Pairs, func(pair traffic.Pair) (float64, error) {
			res, err := e.run(pair)
			if err != nil {
				return 0, err
			}
			return res.ThroughputBitsPerCycle(), nil
		})
		if err != nil {
			return Table{}, err
		}
		values = append(values, mean)
	}
	cmeshThr := values[len(values)-1]
	for i, e := range entries {
		t.Rows = append(t.Rows, Row{Label: e.name, Values: []float64{
			values[i], 100 * (values[i] - cmeshThr) / cmeshThr,
		}})
	}
	return t, nil
}

// Figure10 reproduces the ML throughput across reservation windows 500,
// 1000 and 2000, against the static 64WL baseline.
func (s *Suite) Figure10() (Table, error) {
	t := Table{
		Title:   "Figure 10: ML power-scaling throughput vs reservation window (bits/cycle)",
		Columns: []string{"throughput", "vs 64WL %"},
		Notes:   "paper: RW2000 best throughput; RW500/RW1000 drop vs static 64WL",
	}
	base, err := meanOverPairs(s.Opts.Pairs, func(pair traffic.Pair) (float64, error) {
		res, err := runOne(pearlAt(config.PEARLDyn(), pair, nil), s.Opts)
		if err != nil {
			return 0, err
		}
		return res.ThroughputBitsPerCycle(), nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, Row{Label: "PEARL-Dyn(64WL)", Values: []float64{base, 0}})
	for _, window := range []int{500, 1000, 2000} {
		ctrl, err := s.controllerFor(config.MLRW(window, true))
		if err != nil {
			return Table{}, err
		}
		mean, err := meanOverPairs(s.Opts.Pairs, func(pair traffic.Pair) (float64, error) {
			res, err := runOne(pearlAt(config.MLRW(window, true), pair, ctrl), s.Opts)
			if err != nil {
				return 0, err
			}
			return res.ThroughputBitsPerCycle(), nil
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("ML RW%d", window),
			Values: []float64{mean, 100 * (mean - base) / base},
		})
	}
	return t, nil
}

// Figure11 reproduces the laser turn-on sensitivity study: average laser
// power and throughput for Dyn RW500/RW2000 as stabilisation time sweeps
// 2-32 ns.
func (s *Suite) Figure11() (Table, error) {
	t := Table{
		Title:   "Figure 11: laser turn-on sensitivity (Dyn power scaling)",
		Columns: []string{"laser W", "throughput", "thr loss %"},
		Notes:   "paper: power varies <1% across turn-on latencies; throughput loss grows with turn-on time",
	}
	for _, window := range []int{500, 2000} {
		var base float64
		for _, turnOn := range []float64{2, 4, 16, 32} {
			cfg := config.DynRW(window)
			cfg.LaserTurnOnNs = turnOn
			results, err := parallelMap(len(s.Opts.Pairs), func(i int) (Result, error) {
				return runOne(pearlAt(cfg, s.Opts.Pairs[i], nil), s.Opts)
			})
			if err != nil {
				return Table{}, err
			}
			var thrSum, powSum float64
			for _, res := range results {
				thrSum += res.ThroughputBitsPerCycle()
				powSum += res.Account.AverageLaserPowerW()
			}
			n := float64(len(s.Opts.Pairs))
			thr, pow := thrSum/n, powSum/n
			if turnOn == 2 {
				base = thr
			}
			loss := 100 * (base - thr) / base
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("Dyn RW%d @ %gns", window, turnOn),
				Values: []float64{pow, thr, loss},
			})
		}
	}
	return t, nil
}

// NRMSE reproduces the §IV.C prediction-quality numbers for both window
// sizes.
func (s *Suite) NRMSE() (Table, error) {
	t := Table{
		Title:   "NRMSE fit scores (1 = perfect)",
		Columns: []string{"validation", "test", "top-state acc %", "state acc %"},
		Notes:   "paper: 0.79 validation; 0.68 test at RW500, 0.05 at RW2000 with 99.9% top-state accuracy",
	}
	for _, window := range []int{500, 2000} {
		model, err := s.Model(window)
		if err != nil {
			return Table{}, err
		}
		ev, err := Evaluate(model, s.Opts)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("ML RW%d", window),
			Values: []float64{
				ev.ValScore, ev.TestScore,
				100 * ev.TopStateAccuracy, 100 * ev.StateAccuracy,
			},
		})
	}
	return t, nil
}

// TableI renders the architecture specification.
func TableI() Table {
	return Table{
		Title:   "Table I: architecture specifications",
		Columns: []string{"value"},
		Rows: []Row{
			{"CPU cores", []float64{config.TotalCPUCores}},
			{"CPU threads/core", []float64{config.CPUThreadsPerCore}},
			{"CPU frequency (GHz)", []float64{config.CPUFrequencyHz / 1e9}},
			{"GPU compute units", []float64{config.TotalGPUCUs}},
			{"GPU frequency (GHz)", []float64{config.GPUFrequencyHz / 1e9}},
			{"network frequency (GHz)", []float64{config.NetworkFrequencyHz / 1e9}},
			{"CPU L1I (kB)", []float64{config.CPUL1ICacheBytes >> 10}},
			{"CPU L1D (kB)", []float64{config.CPUL1DCacheBytes >> 10}},
			{"CPU L2 (kB)", []float64{config.CPUL2CacheBytes >> 10}},
			{"GPU L1 (kB)", []float64{config.GPUL1CacheBytes >> 10}},
			{"GPU L2 (kB)", []float64{config.GPUL2CacheBytes >> 10}},
			{"L3 (MB)", []float64{config.L3CacheBytes >> 20}},
			{"main memory (GB)", []float64{config.MainMemoryBytes >> 30}},
		},
	}
}

// TableIIFig renders the area overhead inventory.
func TableIIFig() Table {
	a := config.TableII()
	return Table{
		Title:   "Table II: area overhead (mm^2)",
		Columns: []string{"area"},
		Rows: []Row{
			{"cluster (CPU, GPU, L1)", []float64{a.ClusterCoresL1}},
			{"L2 per cluster", []float64{a.L2PerCluster}},
			{"optical components", []float64{a.OpticalComponents}},
			{"L3 cache", []float64{a.L3Cache}},
			{"router", []float64{a.Router}},
			{"on-chip laser per router", []float64{a.OnChipLaser}},
			{"dynamic allocation", []float64{a.DynamicAllocation}},
			{"machine learning", []float64{a.MachineLearning}},
			{"chip total", []float64{a.Total()}},
		},
	}
}

// TableV renders the optical loss budget and per-state laser powers.
func TableV() Table {
	l := photonic.TableV()
	t := Table{
		Title:   "Table V: optical components and laser states",
		Columns: []string{"value"},
		Rows: []Row{
			{"modulator insertion (dB)", []float64{l.ModulatorInsertionDB}},
			{"waveguide (dB/cm)", []float64{l.WaveguideDBPerCM}},
			{"coupler (dB)", []float64{l.CouplerDB}},
			{"splitter (dB)", []float64{l.SplitterDB}},
			{"filter through (dB)", []float64{l.FilterThroughDB}},
			{"filter drop (dB)", []float64{l.FilterDropDB}},
			{"photodetector (dB)", []float64{l.PhotodetectorDB}},
			{"receiver sensitivity (dBm)", []float64{l.ReceiverSensDBm}},
			{"total worst-case loss (dB)", []float64{l.TotalLossDB()}},
		},
	}
	states := photonic.States()
	sort.Slice(states, func(i, j int) bool { return states[i] > states[j] })
	for _, s := range states {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("laser power %s (W)", s),
			Values: []float64{s.LaserPowerW()},
		})
	}
	return t
}
