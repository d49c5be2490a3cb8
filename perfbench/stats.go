package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// percentile resting on fewer is refused rather than reported, so a p90
// needs at least 100 samples and a median at least 20.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It refuses when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// timing is a latency distribution reduced to its median and 90th
// percentile, with the sample count both rest on.
type timing struct {
	P50, P90 float64
	N        int
}

// summarize reduces samples to a timing, refusing (per percentile) when
// the sample is too small.
func summarize(xs []float64) (timing, error) {
	p50, err := percentile(xs, 50)
	if err != nil {
		return timing{}, err
	}
	p90, err := percentile(xs, 90)
	if err != nil {
		return timing{}, err
	}
	return timing{P50: p50, P90: p90, N: len(xs)}, nil
}

// median is the nearest-rank median, for small sets of repeated
// measurements (set-up repetitions) that need no tail.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[(len(sorted)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cycleRate collects per-operation simulation rates (simulated cycles
// per host second) per backend. Reporting their median, not total cycles
// over total time, keeps a burst of host interference from moving the
// figure.
type cycleRate struct {
	rates [numBackends][]float64
}

func (c *cycleRate) add(backend string, cycles int64, host time.Duration) {
	b := backendOf(backend)
	c.rates[b] = append(c.rates[b], float64(cycles)/host.Seconds())
}

// backendOf maps a backend name, "pearl" or "cmesh", to its index.
func backendOf(name string) int {
	if name == "cmesh" {
		return backendCMESH
	}
	return backendPEARL
}

// report adds the per-backend median rates to the end-to-end metrics.
func (c *cycleRate) report(o *outcome) {
	o.metric("pearl_cycles_per_s", median(c.rates[backendPEARL]), "1/s", len(c.rates[backendPEARL]))
	o.metric("cmesh_cycles_per_s", median(c.rates[backendCMESH]), "1/s", len(c.rates[backendCMESH]))
}

// opMetrics adds operation throughput and latency percentiles.
func opMetrics(o *outcome, lat []float64, elapsed time.Duration) error {
	t, err := summarize(lat)
	if err != nil {
		return fmt.Errorf("operation latency: %w", err)
	}
	o.metric("ops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
	o.metric("op_ms_p50", t.P50, "ms", t.N)
	o.metric("op_ms_p90", t.P90, "ms", t.N)
	return nil
}

// passOp is one operation of a fixed pass: its backend and the network
// cycles it simulates.
type passOp struct {
	backend int
	cycles  int64
}

// fastest keeps, for each operation of a fixed pass, the fastest of its
// timed repeats. A run repeats the same pass several times, spread over
// the run. Interference from other tenants of a shared host only ever
// adds time to an operation, so its fastest repeat is the steadiest
// estimate of what it costs; a change to the program moves every repeat.
type fastest []time.Duration

func (f fastest) add(i int, d time.Duration) {
	if f[i] == 0 || d < f[i] {
		f[i] = d
	}
}

// passMetrics reports the end-to-end rates and latencies of one pass
// with every operation at its fastest repeat: simulated cycles per host
// second per backend, operations per second, and the latency
// percentiles over the operations. An operation that never completed
// is left out; it was counted as failed.
func passMetrics(o *outcome, ops []passOp, best fastest) error {
	var cycles [numBackends]int64
	var host [numBackends]time.Duration
	var n [numBackends]int
	var total time.Duration
	var lat []float64
	for i, op := range ops {
		if best[i] == 0 {
			continue
		}
		cycles[op.backend] += op.cycles
		host[op.backend] += best[i]
		n[op.backend]++
		total += best[i]
		lat = append(lat, ms(best[i]))
	}
	t, err := summarize(lat)
	if err != nil {
		return fmt.Errorf("operation latency: %w", err)
	}
	for _, b := range []struct {
		name string
		idx  int
	}{{"pearl_cycles_per_s", backendPEARL}, {"cmesh_cycles_per_s", backendCMESH}} {
		o.metric(b.name, float64(cycles[b.idx])/host[b.idx].Seconds(), "1/s", n[b.idx])
	}
	o.metric("ops_per_s", float64(len(lat))/total.Seconds(), "1/s", len(lat))
	o.metric("op_ms_p50", t.P50, "ms", t.N)
	o.metric("op_ms_p90", t.P90, "ms", t.N)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
