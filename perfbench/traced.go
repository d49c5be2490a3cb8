package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/controller"
	"repro/internal/experiments"
)

// The traced run is kept apart from the timed runs. Whatever workload it
// is invoked for, it records the whole ledger, so every traced run
// reports every per-layer metric:
//
//   - kernel layers, from bare stacks replaying the sweep-fig9 pass with
//     a span at every layer boundary;
//   - pearld layers, from a pearld-mix pass and a pearld-seeds pass with
//     client-side spans and pearld's own job timestamps;
//   - the lockstep engine, against the same seeds run one by one.
//
// Every workload's digested prefix is replayed on traced bare stacks;
// the replay must reproduce the untraced results bit for bit, which
// shows the wrappers only observe and the digests match the timed runs'.

// Traced pearld passes need enough of each request class for the
// percentiles they report.
const (
	tracedMinCold   = 110
	tracedMinScrape = 20
	lockstepGroups  = 3
)

func runTraced(rc runConfig) (*outcome, error) {
	o := &outcome{}
	for _, pass := range []func(runConfig, *outcome) error{traceSweep, traceMix, traceSeeds} {
		if err := pass(rc, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceSweep replays the first sweep-fig9 pass three ways per point:
// through pearl.Run, on an untraced bare stack and on a traced one.
func traceSweep(rc runConfig, o *outcome) error {
	model, _, err := trainModel(rc.seed, 1)
	if err != nil {
		return err
	}
	pts := fig9Points(model)
	led := newLedger()
	traced := make([]pointStats, len(pts))
	var public, bare, tracedHost [numBackends]time.Duration
	var cycles int64
	var n [numBackends]int
	for _, i := range shuffled(rc.seed, 0, len(pts)) {
		p := pts[i]
		o.attempted++
		t0 := time.Now()
		res, err := runPublic(p)
		t1 := time.Now()
		plain, err2 := runBare(p, nil)
		t2 := time.Now()
		tr, err3 := runBare(p, led)
		t3 := time.Now()
		if err = firstErr(err, err2, err3); err != nil {
			o.opFailed(fmt.Errorf("%s: %w", p.key(), err))
			o.problem("sweep point %s failed, so the traced run has no digest", p.key())
			continue
		}
		if pub := statsOf(res); plain != pub || tr != pub {
			o.problem("%s: bare stack (traced or not) differs from pearl.Run", p.key())
		}
		if err := tr.check(); err != nil {
			o.problem("%s: %v", p.key(), err)
		}
		traced[i] = tr
		b := backendPEARL
		if p.backend == "cmesh" {
			b = backendCMESH
		}
		public[b] += t1.Sub(t0)
		bare[b] += t2.Sub(t1)
		tracedHost[b] += t3.Sub(t2)
		cycles += p.cycles()
		n[b]++
	}
	o.digests = append(o.digests, "sweep-fig9="+digestPoints(pts, traced))
	f9Check(o, pts, traced)

	o.metrics = append(o.metrics, led.layerMetrics()...)
	bareAll := bare[backendPEARL] + bare[backendCMESH]
	tracedAll := tracedHost[backendPEARL] + tracedHost[backendCMESH]
	overhead := float64(tracedAll) / float64(bareAll)
	o.metric("experiments.run_overhead_ratio", float64(public[backendPEARL])/float64(bare[backendPEARL]), "ratio", n[backendPEARL])
	o.metric("trace.overhead_ratio", overhead, "ratio", len(pts))

	// The layers' self times add up to the traced cycle time, which lies
	// between the untraced one and that times the tracing overhead.
	self := led.selfNsPerCycle()
	bareCycle := float64(bareAll) / float64(cycles)
	tracedCycle := float64(tracedAll) / float64(cycles)
	o.note("trace.self_sum_ns_per_cycle", self, "ns", int(cycles))
	o.note("trace.traced_ns_per_cycle", tracedCycle, "ns", int(cycles))
	o.note("trace.bare_ns_per_cycle", bareCycle, "ns", int(cycles))
	if self < 0.9*bareCycle || self > 1.05*tracedCycle {
		o.problem("layer self times sum to %.0f ns/cycle, outside [%.0f, %.0f] (untraced, traced)", self, bareCycle, tracedCycle)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayJob re-simulates a job pearld ran on a traced bare stack and
// checks the statistics are the ones pearld returned.
func replayJob(o *outcome, led *ledger, what string, j simJob, served pointStats) {
	p, err := jobPoint(j)
	if err != nil {
		o.problem("%s: %v", what, err)
		return
	}
	s, err := runBare(p, led)
	if err != nil {
		o.problem("%s: replay: %v", what, err)
		return
	}
	if s != served {
		o.problem("%s (%s): traced bare stack differs from pearld's result", what, j.key())
	}
}

// traceMix runs a pearld-mix pass with spans and replays its digested
// prefix.
func traceMix(rc runConfig, o *outcome) error {
	ws := mixWorkingSet(rc.seed)
	d, warm, _, err := setupMix(rc, ws, 1)
	if err != nil {
		return err
	}
	ctx := context.Background()
	before, err := d.scrape(ctx)
	if err != nil {
		_ = d.stop()
		return err
	}
	floors := mixFloors{ops: mixDigestOps}
	floors.perType[classCold] = tracedMinCold
	floors.perType[classScrape] = tracedMinScrape
	recs := driveMix(d, rc.seed, ws, time.Now(), floors, nil)
	after, err := d.scrape(ctx)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	checkMix(o, recs, warm)

	var httpMs, scrapeMs, queueMs, runMs, util []float64
	replay := newLedger()
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		if r.op.class == classScrape {
			scrapeMs = append(scrapeMs, r.ms)
			util = append(util, r.scrape.WorkerUtilization)
			continue
		}
		total, err := r.status.total()
		if err != nil {
			o.problem("request %d: %v", i, err)
			continue
		}
		httpMs = append(httpMs, r.ms-ms(total))
		if r.op.class == classCold {
			queue, run, err := r.status.spans()
			if err != nil {
				o.problem("cold request %d: %v", i, err)
				continue
			}
			queueMs = append(queueMs, ms(queue))
			runMs = append(runMs, ms(run))
		}
		if i < mixDigestOps {
			served, err := decodeStats(r.result)
			if err != nil {
				o.problem("request %d: %v", i, err)
				continue
			}
			replayJob(o, replay, fmt.Sprintf("request %d", i), r.op.job, served)
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"server.http_ms_p50", httpMs, 50},
		{"server.metrics_scrape_ms_p50", scrapeMs, 50},
		{"server.queue_wait_ms_p50", queueMs, 50},
		{"server.queue_wait_ms_p90", queueMs, 90},
		{"server.run_ms_p50", runMs, 50},
	} {
		v, err := percentile(m.xs, m.p)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		o.metric(m.name, v, "ms", len(m.xs))
	}
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	o.metric("server.cache_hit_ratio", hits/(hits+misses), "ratio", int(hits+misses))
	o.metric("server.worker_utilization", mean(util), "ratio", len(util))
	return nil
}

// traceSeeds runs the digested pearld-seeds prefix with spans, replays
// every per-seed result, and measures the lockstep engine's efficiency.
func traceSeeds(rc runConfig, o *outcome) error {
	d, _, err := bootSeeds(rc)
	if err != nil {
		return err
	}
	ctx := context.Background()
	before, err := d.scrape(ctx)
	if err != nil {
		_ = d.stop()
		return err
	}
	recs := runBatches(d, rc.seed, seedsDigestBatches)
	after, err := d.scrape(ctx)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	checkSeeds(o, recs)

	var submit []float64
	replay := newLedger()
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		submit = append(submit, r.submitMs)
		jobs, err := replicaJobs(r.job)
		if err != nil {
			return err
		}
		for k, p := range r.results.Points {
			if k < len(jobs) && p.Result != nil {
				replayJob(o, replay, fmt.Sprintf("batch %d seed %d", i, k), jobs[k], *p.Result)
			}
		}
	}
	o.metric("server.batch_submit_ms", mean(submit), "ms", len(submit))
	groups := float64(after.ReplicaGroupsExecuted - before.ReplicaGroupsExecuted)
	seeds := float64(after.ReplicaSeedsSimulated - before.ReplicaSeedsSimulated)
	o.metric("server.replica_groups_per_point", groups/seeds, "ratio", int(seeds))

	eff, n, err := lockstepEfficiency(o, rc.seed)
	if err != nil {
		return err
	}
	o.metric("experiments.lockstep_efficiency", eff, "ratio", n)
	return nil
}

// lockstepEfficiency runs the first lockstepGroups photonic batches of
// the pearld-seeds schedule both as lockstep groups and seed by seed
// through pearl.Run, and returns single-run time over lockstep time
// times lanes, with the number of groups measured.
func lockstepEfficiency(o *outcome, seed uint64) (float64, int, error) {
	lanes := runtime.GOMAXPROCS(0)
	if lanes > seedsPerBatch {
		lanes = seedsPerBatch
	}
	var single, lock time.Duration
	groups := 0
	for i := 0; groups < lockstepGroups; i++ {
		b := seedsBatchAt(seed, i)
		if b.backend != "pearl" {
			continue
		}
		groups++
		jobs, err := replicaJobs(b)
		if err != nil {
			return 0, 0, err
		}
		p, err := jobPoint(b)
		if err != nil {
			return 0, 0, err
		}
		ctrl, err := controller.New(p.cfg, nil)
		if err != nil {
			return 0, 0, err
		}
		seeds := make([]uint64, len(jobs))
		for k, j := range jobs {
			seeds[k] = j.seed
		}
		start := time.Now()
		lockRes, err := experiments.RunPEARLReplicatedSeeds(context.Background(), p.cfg, p.pair, p.opts, seeds, ctrl)
		lock += time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("lockstep %s: %w", b.key(), err)
		}
		for k, s := range seeds {
			opts := p.opts
			opts.Seed = s
			start := time.Now()
			res, err := pearl.Run(p.cfg, p.pair, opts)
			single += time.Since(start)
			if err != nil {
				return 0, 0, fmt.Errorf("single %s seed %d: %w", b.key(), k, err)
			}
			if statsOf(res) != statsOf(lockRes[k]) {
				o.problem("lockstep %s seed %d differs from its single run", b.key(), k)
			}
		}
	}
	return float64(single) / (float64(lock) * float64(lanes)), groups, nil
}
