package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/traffic"
)

// sweep-fig9 simulates Figure 9 point by point through the root pearl
// package. The points run at the paper's seed and warmup, as the
// repository's Figure 9 and its shape checks do: at this run length the
// F9.dyn-top claim does not hold at every seed, so only the point order
// and the ML training data vary with the workload seed.
const (
	sweepSimSeed      = 2018
	sweepWarmup       = 2000
	sweepMeasure      = 10000
	trainWindow       = 500
	trainCollect      = 10000
	sweepSetupRepeats = 5
	// sweepMinPasses is the fewest passes a run makes, so that every
	// point's fastest time rests on that many repeats.
	sweepMinPasses = 4
)

// fig9Labels are the Figure 9 rows, in figure order; CMESH is last.
var fig9Labels = []string{
	"PEARL-Dyn(64WL)", "PEARL-FCFS(64WL)", "Dyn RW500", "ML RW500 no8WL",
	"PROTEUS RW500", "D3NOC RW500", "CMESH",
}

// fig9Points crosses the Figure 9 configurations with the 16 test pairs.
func fig9Points(model *models.Artifact) []point {
	noLow := config.DynRW(500)
	noLow.Allow8WL = false
	cfgs := []config.Config{
		config.PEARLDyn(), config.PEARLFCFS(), noLow, config.MLRW(500, false),
		config.ProteusRW(500), config.D3NOCRW(500), config.Default(),
	}
	opts := experiments.Options{Seed: sweepSimSeed, WarmupCycles: sweepWarmup, MeasureCycles: sweepMeasure}
	var pts []point
	for i, cfg := range cfgs {
		for _, pair := range traffic.TestPairs() {
			p := point{label: fig9Labels[i], backend: "pearl", cfg: cfg, pair: pair, opts: opts}
			if fig9Labels[i] == "CMESH" {
				p.backend = "cmesh"
			}
			if fig9Labels[i] == "ML RW500 no8WL" {
				p.model = model
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// trainModel trains the ML RW500 model the way set-up does, timing each
// of repeats trainings; every training must yield the same artifact.
//
// Training runs on one processor. pearl.Train's first collection pass
// shares one random-state policy, and so one RNG, across its parallel
// per-pair workers: with more processors the model depends on goroutine
// scheduling. On one processor its single worker visits the pairs in
// order, and the model is a function of the seed.
func trainModel(seed uint64, repeats int) (*models.Artifact, []float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := pearl.FullOptions()
	opts.Seed = freshSeed(seed, "train")
	opts.CollectCycles = trainCollect
	var model *models.Artifact
	var secs []float64
	for r := 0; r < repeats; r++ {
		start := time.Now()
		m, err := pearl.Train(trainWindow, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("training: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if model != nil && m.Hash != model.Hash {
			return nil, nil, fmt.Errorf("training is not deterministic: %s then %s", model.Hash, m.Hash)
		}
		model = m
	}
	return model, secs, nil
}

// digestPoints digests per-point statistics in point order.
func digestPoints(pts []point, st []pointStats) string {
	d := newDigest()
	for i, p := range pts {
		d.add(p.key(), st[i])
	}
	return d.sum()
}

// f9Check verifies the four Figure 9 claims on the sweep's own mean
// throughputs, with the thresholds of the repository's shape checks.
func f9Check(o *outcome, pts []point, st []pointStats) {
	sum := map[string]float64{}
	n := map[string]int{}
	for i, p := range pts {
		sum[p.label] += st[i].Throughput
		n[p.label]++
	}
	cmesh := sum["CMESH"] / float64(n["CMESH"])
	vs := func(label string) float64 {
		return 100 * (sum[label]/float64(n[label]) - cmesh) / cmesh
	}
	dyn, fcfs, dynRW, ml := vs("PEARL-Dyn(64WL)"), vs("PEARL-FCFS(64WL)"), vs("Dyn RW500"), vs("ML RW500 no8WL")
	for _, c := range []struct {
		id   string
		pass bool
	}{
		{"F9.pearl-beats-cmesh", dyn > 5},
		{"F9.ml-beats-cmesh", ml > 0},
		{"F9.dyn-rw500-near-fcfs", math.Abs(dynRW-fcfs) < 8},
		{"F9.dyn-top", dyn >= math.Max(math.Max(fcfs, dynRW), math.Max(ml, dyn))-3},
	} {
		if !c.pass {
			o.problem("%s does not hold: Dyn %+.1f%% / FCFS %+.1f%% / DynRW %+.1f%% / ML %+.1f%% vs CMESH",
				c.id, dyn, fcfs, dynRW, ml)
		}
	}
	o.note("fig9.dyn_vs_cmesh_pct", dyn, "%", n["PEARL-Dyn(64WL)"])
	o.note("fig9.fcfs_vs_cmesh_pct", fcfs, "%", n["PEARL-FCFS(64WL)"])
	o.note("fig9.dyn_rw500_vs_cmesh_pct", dynRW, "%", n["Dyn RW500"])
	o.note("fig9.ml_vs_cmesh_pct", ml, "%", n["ML RW500 no8WL"])
}

// runSweep is the sweep-fig9 workload: whole passes over the 112 points,
// each pass in its own seeded order, until the measured time is spent
// and at least sweepMinPasses passes are done. Each point's time is the
// fastest of its passes. The first pass is digested and checked; later
// passes must repeat it exactly.
func runSweep(rc runConfig) (*outcome, error) {
	o := &outcome{}
	model, setup, err := trainModel(rc.seed, sweepSetupRepeats)
	if err != nil {
		return nil, err
	}
	o.metric("setup_s", median(setup), "s", len(setup))
	pts := fig9Points(model)
	ops := make([]passOp, len(pts))
	for i, p := range pts {
		ops[i] = passOp{backendOf(p.backend), p.cycles()}
	}
	first := make([]pointStats, len(pts))
	done := make([]bool, len(pts))
	best := make(fastest, len(pts))
	start := time.Now()
	pass := 0
	for ; pass < sweepMinPasses || time.Since(start) < rc.seconds; pass++ {
		if time.Since(start) > hardStop {
			break
		}
		for _, i := range shuffled(rc.seed, pass, len(pts)) {
			p := pts[i]
			o.attempted++
			t0 := time.Now()
			res, err := runPublic(p)
			d := time.Since(t0)
			if err != nil {
				o.opFailed(fmt.Errorf("%s: %w", p.key(), err))
				continue
			}
			s := statsOf(res)
			switch {
			case pass == 0:
				first[i], done[i] = s, true
				if err := s.check(); err != nil {
					o.problem("%s: %v", p.key(), err)
				}
			case done[i] && s != first[i]:
				o.problem("%s: pass %d differs from pass 0", p.key(), pass)
			}
			best.add(i, d)
		}
		if pass == 0 {
			// Peak RSS after one pass: a fixed amount of work.
			if err := addPeakRSS(o); err != nil {
				return nil, err
			}
		}
	}
	o.note("passes", float64(pass), "count", pass)
	if err := passMetrics(o, ops, best); err != nil {
		return nil, err
	}
	for i, ok := range done {
		if !ok {
			o.problem("%s never completed, so the run has no digest", pts[i].key())
			return o, nil
		}
	}
	o.digests = append(o.digests, "sweep-fig9="+digestPoints(pts, first))
	f9Check(o, pts, first)
	return o, nil
}
