package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rl"
)

// Extensions evaluates the repository's two future-work implementations
// against the paper's techniques at RW500:
//
//   - Online RLS: a recursive-least-squares predictor that starts cold
//     and learns during execution, removing the offline two-pass
//     pipeline entirely (the conclusion's "improving the prediction
//     accuracy" direction).
//   - Q-learning: a tabular reinforcement-learning agent choosing
//     wavelength states from discretised congestion observations, after
//     the RL-for-NoC line of work the paper cites (§II.C).
//
// Every policy runs on the identical workloads and is scored on the same
// throughput/laser-power axes as Figures 6 and 7.
func (s *Suite) Extensions() (Table, error) {
	t := Table{
		Title:   "Extensions: offline ML vs online RLS vs Q-learning (RW500)",
		Columns: []string{"throughput", "vs 64WL %", "laser W", "savings %"},
		Notes:   "online learners need no offline data collection; Q-learning trades a slower ramp for threshold-free adaptation",
	}

	type entry struct {
		name string
		run  func(pairIdx int) (Result, error)
	}

	mlCtrl, err := s.controllerFor(config.MLRW(500, true))
	if err != nil {
		return Table{}, err
	}

	entries := []entry{
		{"PEARL-Dyn(64WL)", func(i int) (Result, error) {
			return runOne(pearlAt(config.PEARLDyn(), s.Opts.Pairs[i], nil), s.Opts)
		}},
		{"Dyn RW500 (reactive)", func(i int) (Result, error) {
			return runOne(pearlAt(config.DynRW(500), s.Opts.Pairs[i], nil), s.Opts)
		}},
		{"ML RW500 (offline ridge)", func(i int) (Result, error) {
			return runOne(pearlAt(config.MLRW(500, true), s.Opts.Pairs[i], mlCtrl), s.Opts)
		}},
		{"Online RLS RW500", func(i int) (Result, error) {
			policy, err := core.NewOnlinePolicy(0.995, true)
			if err != nil {
				return Result{}, err
			}
			return runWithPolicy(config.MLRW(500, true), s.Opts.Pairs[i], s.Opts, policy)
		}},
		{"Q-learning RW500", func(i int) (Result, error) {
			rlCfg := rl.DefaultConfig()
			rlCfg.Seed = s.Opts.Seed + uint64(i)
			agent, err := rl.NewAgent(rlCfg)
			if err != nil {
				return Result{}, err
			}
			return runWithPolicy(config.MLRW(500, true), s.Opts.Pairs[i], s.Opts, agent)
		}},
	}

	var baseThr, basePow float64
	for idx, e := range entries {
		var thr, pow float64
		for i := range s.Opts.Pairs {
			res, err := e.run(i)
			if err != nil {
				return Table{}, fmt.Errorf("extensions %s: %w", e.name, err)
			}
			thr += res.ThroughputBitsPerCycle()
			pow += res.Account.AverageLaserPowerW()
		}
		n := float64(len(s.Opts.Pairs))
		thr, pow = thr/n, pow/n
		if idx == 0 {
			baseThr, basePow = thr, pow
		}
		t.Rows = append(t.Rows, Row{Label: e.name, Values: []float64{
			thr, 100 * (thr - baseThr) / baseThr,
			pow, 100 * (basePow - pow) / basePow,
		}})
	}
	return t, nil
}
