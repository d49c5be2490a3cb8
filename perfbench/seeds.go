package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// pearld-seeds is one client submitting seedsPerBatch-seed batches to
// pearld, each only after the previous batch's end frame. A run repeats
// one pass of seedsPassBatches batches, each pass on a freshly booted
// daemon with an empty cache, so every pass simulates the same work.
const (
	// seedsPassBatches is a whole number of schedule blocks, and enough
	// batches for a p90 over one pass.
	seedsPassBatches = 100
	// seedsMinPasses is the fewest passes a run makes, so that every
	// batch's fastest time rests on that many repeats.
	seedsMinPasses = 3
	// seedsDigestBatches is the batch prefix every run digests and every
	// traced run replays.
	seedsDigestBatches = 12
	// seedsSetupRepeats set-ups are timed before the passes, besides
	// the one that boots each pass's daemon.
	seedsSetupRepeats = 8
)

// batchRecord is one completed pearld-seeds batch.
type batchRecord struct {
	job      simJob
	err      error
	submitMs float64 // POST round trip
	wall     time.Duration
	results  batchResults
}

// runBatch submits a batch, follows its feed to the end frame, and
// fetches its results. The wall time runs from submit to end frame.
func (d *daemon) runBatch(b simJob) batchRecord {
	ctx := context.Background()
	rec := batchRecord{job: b}
	req := batchRequest{Backend: b.backend, Preset: b.preset, Workloads: []workloadSpec{b.workload()},
		Seed: b.seed, Seeds: seedsPerBatch, WarmupCycles: b.warmup, MeasureCycles: b.measure}
	start := time.Now()
	var st batchStatus
	if rec.err = d.callJSON(ctx, http.MethodPost, "/v1/batches", req, &st); rec.err != nil {
		return rec
	}
	rec.submitMs = ms(time.Since(start))
	if _, rec.err = d.waitEnd(ctx, "/v1/batches/"+st.ID+"/events"); rec.err != nil {
		return rec
	}
	rec.wall = time.Since(start)
	if rec.err = d.callJSON(ctx, http.MethodGet, "/v1/batches/"+st.ID+"/results", nil, &rec.results); rec.err != nil {
		return rec
	}
	for _, p := range rec.results.Points {
		if p.State != "done" {
			rec.err = fmt.Errorf("batch %s (%s): a point ended %s", st.ID, b.key(), p.State)
			return rec
		}
	}
	return rec
}

// checkBatch verifies a batch yielded every per-seed result and a
// mean±CI row for every series.
func checkBatch(o *outcome, i int, r batchRecord) {
	res := r.results
	if !res.Complete || len(res.Points) != seedsPerBatch {
		o.problem("batch %d (%s): complete=%v with %d of %d per-seed results", i, r.job.key(), res.Complete, len(res.Points), seedsPerBatch)
		return
	}
	for k, p := range res.Points {
		if p.Result == nil {
			o.problem("batch %d (%s): seed %d has no result", i, r.job.key(), k)
		} else if err := p.Result.check(); err != nil {
			o.problem("batch %d (%s) seed %d: %v", i, r.job.key(), k, err)
		}
	}
	if len(res.Series) == 0 {
		o.problem("batch %d (%s): no series rows", i, r.job.key())
	}
	for _, s := range res.Series {
		if s.Points != s.Expected || s.ThroughputCI95 == nil {
			o.problem("batch %d (%s): series %s has %d/%d points, ci95 present=%v", i, r.job.key(), s.Label, s.Points, s.Expected, s.ThroughputCI95 != nil)
		}
	}
}

// seedsWarmBatch is the batch set-up runs to warm the daemon: the same
// series and pair whatever the seed, at a seed never in the schedule.
func seedsWarmBatch(seed uint64) simJob {
	return simJob{backend: "pearl", preset: seedsSeries[0], pair: seedsPairs()[0],
		seed: freshSeed(seed, "seeds.warm"), warmup: seedsWarmup, measure: seedsMeasure}
}

// bootSeeds is one timed set-up: it boots pearld and runs one warm-up
// batch.
func bootSeeds(rc runConfig) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(rc.scratch, 1)
	if err != nil {
		return nil, 0, err
	}
	if rec := d.runBatch(seedsWarmBatch(rc.seed)); rec.err != nil {
		_ = d.stop() // the warm-up error is the one to report
		return nil, 0, fmt.Errorf("warm-up batch: %w", rec.err)
	}
	return d, time.Since(start).Seconds(), nil
}

// runBatches submits the first n batches of the schedule, one after
// another.
func runBatches(d *daemon, seed uint64, n int) []batchRecord {
	recs := make([]batchRecord, n)
	for i := range recs {
		recs[i] = d.runBatch(seedsBatchAt(seed, i))
	}
	return recs
}

// checkSeeds counts every batch against the attempted operations,
// checks each, and digests the per-seed results of the batch prefix.
func checkSeeds(o *outcome, recs []batchRecord) {
	d := newDigest()
	for i, r := range recs {
		if !countBatch(o, i, r) || i >= seedsDigestBatches {
			continue
		}
		for k, p := range r.results.Points {
			if p.Result != nil {
				d.add(fmt.Sprintf("%d|%d|%s", i, k, r.job.key()), *p.Result)
			}
		}
	}
	if len(recs) < seedsDigestBatches {
		o.problem("only %d batches completed, fewer than the %d digested", len(recs), seedsDigestBatches)
	}
	o.digests = append(o.digests, "pearld-seeds="+d.sum())
}

// countBatch counts a batch against the attempted operations and checks
// it; it reports whether the batch completed.
func countBatch(o *outcome, i int, r batchRecord) bool {
	o.attempted++
	if r.err != nil {
		o.opFailed(fmt.Errorf("batch %d: %w", i, r.err))
		if i < seedsDigestBatches {
			o.problem("batch %d in the digested prefix failed", i)
		}
		return false
	}
	checkBatch(o, i, r)
	return true
}

// checkRepeat counts and checks a later pass's batches; each must
// repeat the first pass's per-seed results exactly.
func checkRepeat(o *outcome, pass int, recs, first []batchRecord) {
	for i, r := range recs {
		if !countBatch(o, i, r) || first[i].err != nil {
			continue
		}
		a, b := r.results.Points, first[i].results.Points
		same := len(a) == len(b)
		for k := 0; same && k < len(a); k++ {
			same = a[k].Result != nil && b[k].Result != nil && *a[k].Result == *b[k].Result
		}
		if !same {
			o.problem("batch %d (%s): pass %d differs from pass 0", i, r.job.key(), pass)
		}
	}
}

// runSeeds is the pearld-seeds workload: whole passes, each on a fresh
// daemon, until the measured time is spent and at least seedsMinPasses
// passes are done. Each batch's time is the fastest of its passes. Every
// pass's boot is a timed set-up too.
func runSeeds(rc runConfig) (*outcome, error) {
	o := &outcome{}
	ops := make([]passOp, seedsPassBatches)
	for i := range ops {
		b := seedsBatchAt(rc.seed, i)
		ops[i] = passOp{backendOf(b.backend), seedsPerBatch * b.cycles()}
	}
	best := make(fastest, seedsPassBatches)
	var first []batchRecord
	var setup, submit []float64
	for r := 0; r < seedsSetupRepeats; r++ {
		d, secs, err := bootSeeds(rc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, secs)
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up daemon: %w", err)
		}
	}
	start := time.Now()
	pass := 0
	for ; pass < seedsMinPasses || time.Since(start) < rc.seconds; pass++ {
		if time.Since(start) > hardStop {
			break
		}
		d, secs, err := bootSeeds(rc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, secs)
		recs := runBatches(d, rc.seed, seedsPassBatches)
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping pearld: %w", err)
		}
		if pass == 0 {
			// Peak RSS after one pass: a fixed amount of work.
			if err := addPeakRSS(o); err != nil {
				return nil, err
			}
			first = recs
			checkSeeds(o, recs)
		} else {
			checkRepeat(o, pass, recs, first)
		}
		for i, r := range recs {
			if r.err == nil {
				best.add(i, r.wall)
				submit = append(submit, r.submitMs)
			}
		}
	}
	o.metric("setup_s", median(setup), "s", len(setup))
	o.note("passes", float64(pass), "count", pass)
	if err := passMetrics(o, ops, best); err != nil {
		return nil, err
	}
	var cycles int64
	var host time.Duration
	for i, op := range ops {
		if best[i] > 0 {
			cycles += op.cycles
			host += best[i]
		}
	}
	o.note("replica_cycles_per_s", float64(cycles)/host.Seconds(), "1/s", len(ops))
	o.note("batch_submit_ms_mean", mean(submit), "ms", len(submit))
	return o, nil
}
