package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// pearld-mix is a closed loop of mixClients clients against pearld:
// each sends its next request only after its previous one completed.
const (
	mixClients = 2
	// mixDigestOps is the schedule prefix every run digests and every
	// traced run replays: far below what a timed run completes.
	mixDigestOps = 200
	// mixRSSOps is the request count at which the run reads its peak
	// RSS: pearld keeps every job, so memory grows with requests served,
	// and a fixed amount of work keeps throughput noise out of the figure.
	mixRSSOps = 2000
	// mixSetupRepeats daemon boots (each warming the working set) are
	// timed; the last daemon serves the run.
	mixSetupRepeats = 5
)

// mixRecord is one completed pearld-mix request.
type mixRecord struct {
	op     mixOp
	err    error
	ms     float64 // client round trip: submit to result fetched
	status jobStatus
	result []byte
	scrape metricsSnapshot
}

// doMixOp performs one request: a job (submit, follow its feed to the
// end frame, fetch the result) or a metrics scrape.
func doMixOp(d *daemon, op mixOp) mixRecord {
	ctx := context.Background()
	rec := mixRecord{op: op}
	start := time.Now()
	if op.class == classScrape {
		rec.scrape, rec.err = d.scrape(ctx)
	} else {
		rec.status, rec.result, rec.err = d.runJob(ctx, op.job)
	}
	rec.ms = ms(time.Since(start))
	return rec
}

// mixFloors are the minimum completed requests, overall and per class,
// a pass needs before it may stop.
type mixFloors struct {
	ops     int
	perType [3]int
}

// driveMix runs the schedule from index 0 with mixClients clients until
// the deadline has passed and the floors are met, and returns the
// records in schedule order. onDone, if set, runs on the client
// goroutine after each request completes, with the number completed so
// far; each number is passed exactly once.
func driveMix(d *daemon, seed uint64, ws []simJob, deadline time.Time, floors mixFloors, onDone func(int)) []mixRecord {
	var (
		mu      sync.Mutex
		recs    []mixRecord
		taken   [3]int
		done    int
		wg      sync.WaitGroup
		started = time.Now()
	)
	enough := func() bool {
		if time.Since(started) > hardStop {
			return true
		}
		if time.Now().Before(deadline) || len(recs) < floors.ops {
			return false
		}
		for c, n := range floors.perType {
			if taken[c] < n {
				return false
			}
		}
		return true
	}
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if enough() {
					mu.Unlock()
					return
				}
				i := len(recs)
				op := mixOpAt(seed, i, ws)
				recs = append(recs, mixRecord{op: op})
				taken[op.class]++
				mu.Unlock()
				rec := doMixOp(d, op)
				mu.Lock()
				recs[i] = rec
				done++
				n := done
				mu.Unlock()
				if onDone != nil {
					onDone(n)
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// setupMix boots pearld and warms the hit working set, repeats times
// (keeping the last daemon); every boot must compute the same results.
func setupMix(rc runConfig, ws []simJob, repeats int) (*daemon, [][]byte, []float64, error) {
	var (
		d    *daemon
		warm [][]byte
		secs []float64
	)
	for r := 0; r < repeats; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		start := time.Now()
		var err error
		d, err = startDaemon(rc.scratch, mixClients)
		if err != nil {
			return nil, nil, nil, err
		}
		bodies := make([][]byte, len(ws))
		for k, j := range ws {
			if _, bodies[k], err = d.runJob(context.Background(), j); err != nil {
				_ = d.stop() // the warm-up error is the one to report
				return nil, nil, nil, fmt.Errorf("warming %s: %w", j.key(), err)
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		for k := range warm {
			if !bytes.Equal(warm[k], bodies[k]) {
				_ = d.stop()
				return nil, nil, nil, fmt.Errorf("warming %s gave different results on two boots", ws[k].key())
			}
		}
		warm = bodies
	}
	return d, warm, secs, nil
}

// checkMix counts every request against the attempted operations,
// checks every hit against the result first computed for its key, and
// digests the schedule prefix.
func checkMix(o *outcome, recs []mixRecord, warm [][]byte) {
	d := newDigest()
	for i, r := range recs {
		o.attempted++
		if r.err != nil {
			o.opFailed(fmt.Errorf("request %d (%s): %w", i, r.op.class, r.err))
			if i < mixDigestOps {
				o.problem("request %d in the digested prefix failed", i)
			}
			continue
		}
		if r.op.class == classHit {
			if !r.status.Cached {
				o.problem("hit %d (%s) was not served from the cache", i, r.op.job.key())
			}
			if !bytes.Equal(r.result, warm[r.op.hit]) {
				o.problem("hit %d (%s) differs from the result first computed for its key", i, r.op.job.key())
			}
		}
		if r.op.class == classScrape || i >= mixDigestOps {
			continue
		}
		s, err := decodeStats(r.result)
		if err != nil {
			o.problem("request %d result: %v", i, err)
			continue
		}
		if err := s.check(); err != nil {
			o.problem("request %d (%s): %v", i, r.op.job.key(), err)
		}
		d.add(fmt.Sprintf("%d|%s", i, r.op.job.key()), s)
	}
	if len(recs) < mixDigestOps {
		o.problem("only %d requests completed, fewer than the %d digested", len(recs), mixDigestOps)
	}
	o.digests = append(o.digests, "pearld-mix="+d.sum())
}

// noteTiming reports a latency distribution; a refused percentile shows
// as NaN with its sample count.
func noteTiming(o *outcome, name string, xs []float64) {
	t, err := summarize(xs)
	if err != nil {
		t = timing{P50: math.NaN(), P90: math.NaN(), N: len(xs)}
		if p50, err := percentile(xs, 50); err == nil {
			t.P50 = p50
		}
	}
	o.note(name+"_ms_p50", t.P50, "ms", len(xs))
	o.note(name+"_ms_p90", t.P90, "ms", len(xs))
}

// runMix is the pearld-mix workload.
func runMix(rc runConfig) (*outcome, error) {
	o := &outcome{}
	ws := mixWorkingSet(rc.seed)
	d, warm, setup, err := setupMix(rc, ws, mixSetupRepeats)
	if err != nil {
		return nil, err
	}
	o.metric("setup_s", median(setup), "s", len(setup))
	start := time.Now()
	var rssErr error
	recs := driveMix(d, rc.seed, ws, start.Add(rc.seconds), mixFloors{ops: mixRSSOps}, func(done int) {
		if done == mixRSSOps {
			rssErr = addPeakRSS(o)
		}
	})
	elapsed := time.Since(start)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping pearld: %w", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	checkMix(o, recs, warm)

	var rate cycleRate
	var all []float64
	byClass := [3][]float64{}
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		all = append(all, r.ms)
		byClass[r.op.class] = append(byClass[r.op.class], r.ms)
		if r.op.class != classCold {
			continue
		}
		_, run, err := r.status.spans()
		if err != nil || run <= 0 {
			o.problem("cold job %d has no run span (%v)", i, err)
			continue
		}
		rate.add(r.op.job.backend, r.op.job.cycles(), run)
	}
	rate.report(o)
	if err := opMetrics(o, all, elapsed); err != nil {
		return nil, err
	}
	noteTiming(o, "hit", byClass[classHit])
	noteTiming(o, "cold", byClass[classCold])
	o.note("requests_per_s", float64(len(all))/elapsed.Seconds(), "1/s", len(all))
	return o, nil
}
