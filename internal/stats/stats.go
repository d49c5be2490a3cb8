// Package stats collects the measurements the paper reports: delivered
// throughput (packets and bits per cycle, Gbps), per-class breakdowns,
// end-to-end latency distributions, wavelength-state residency histograms
// and generic running summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a running mean/variance/min/max accumulator (Welford).
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Histogram is a fixed-bucket latency histogram with exact percentile
// support via a bounded reservoir of raw samples.
type Histogram struct {
	samples []float64
	sorted  bool
	limit   int
	sum     float64
	n       int64
}

// NewHistogram returns a histogram retaining at most limit raw samples
// (first-N retention keeps determinism; measured windows are bounded in
// this codebase, so truncation is rare and noted by Truncated).
func NewHistogram(limit int) *Histogram {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Histogram{limit: limit}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	if len(h.samples) < h.limit {
		h.samples = append(h.samples, x)
		h.sorted = false
	}
}

// N returns the total samples recorded.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the mean over all recorded samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Truncated reports whether samples beyond the retention limit were
// dropped from percentile computation.
func (h *Histogram) Truncated() bool { return h.n > int64(len(h.samples)) }

// NearestRank returns the p-th percentile (0..100) of an ascending
// slice by the nearest-rank rule: the value at rank ceil(p/100·n).
// p <= 0 (and NaN) gives the minimum, p >= 100 the maximum, and an
// empty slice gives 0.
func NearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case !(p > 0):
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	// A p so small that p/100·n underflows to 0 still takes rank 1.
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) of retained
// samples using nearest-rank; 0 when empty.
func (h *Histogram) Percentile(p float64) float64 {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	return NearestRank(h.samples, p)
}

// Percentiles returns the requested percentiles (each 0..100,
// nearest-rank) computed over a sorted copy of the retained samples,
// leaving the receiver's sample order untouched. One sort serves every
// requested quantile, which is what a metrics endpoint wants when it
// reports p50/p99 from a histogram shared with concurrent writers under
// an external lock.
func (h *Histogram) Percentiles(ps ...float64) []float64 {
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = NearestRank(sorted, p)
	}
	return out
}

// ClassCounts tracks per-class packet and bit totals.
type ClassCounts struct {
	Packets [2]uint64
	Bits    [2]uint64
}

// Add records a delivered packet of the given class (0 or 1) and size.
func (c *ClassCounts) Add(class int, bits int) {
	c.Packets[class]++
	c.Bits[class] += uint64(bits)
}

// TotalPackets sums both classes.
func (c *ClassCounts) TotalPackets() uint64 { return c.Packets[0] + c.Packets[1] }

// TotalBits sums both classes.
func (c *ClassCounts) TotalBits() uint64 { return c.Bits[0] + c.Bits[1] }

// Share returns the class's fraction of total packets (0 when empty).
func (c *ClassCounts) Share(class int) float64 {
	tot := c.TotalPackets()
	if tot == 0 {
		return 0
	}
	return float64(c.Packets[class]) / float64(tot)
}

// Residency tracks how many cycles each wavelength state was active —
// Figure 8's state-residency breakdown.
type Residency struct {
	cycles map[int]int64
	total  int64
}

// NewResidency returns an empty residency tracker.
func NewResidency() *Residency {
	return &Residency{cycles: make(map[int]int64)}
}

// Add records n cycles spent in the state identified by key (wavelength
// count).
func (r *Residency) Add(key int, n int64) {
	r.cycles[key] += n
	r.total += n
}

// Fraction returns the share of time spent in the state.
func (r *Residency) Fraction(key int) float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.cycles[key]) / float64(r.total)
}

// Total returns total observed cycles.
func (r *Residency) Total() int64 { return r.total }

// Keys returns the observed state keys in ascending order.
func (r *Residency) Keys() []int {
	keys := make([]int, 0, len(r.cycles))
	for k := range r.cycles {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Network aggregates the full set of run metrics.
type Network struct {
	// Delivered counts packets that reached their destination during the
	// measurement phase.
	Delivered ClassCounts
	// Injected counts packets created by the generators during the
	// measurement phase.
	Injected ClassCounts
	// Latency is end-to-end packet latency in cycles.
	Latency *Histogram
	// CPULatency and GPULatency split latency by class.
	CPULatency, GPULatency *Histogram
	// StateResidency tracks wavelength-state time across all routers.
	StateResidency *Residency
	// MeasuredCycles is the length of the measurement phase.
	MeasuredCycles int64
}

// NewNetwork returns an empty metric set.
func NewNetwork() *Network {
	return &Network{
		Latency:        NewHistogram(0),
		CPULatency:     NewHistogram(0),
		GPULatency:     NewHistogram(0),
		StateResidency: NewResidency(),
	}
}

// ThroughputBitsPerCycle returns delivered bits per network cycle.
func (n *Network) ThroughputBitsPerCycle() float64 {
	if n.MeasuredCycles == 0 {
		return 0
	}
	return float64(n.Delivered.TotalBits()) / float64(n.MeasuredCycles)
}

// ThroughputGbps converts delivered throughput to Gbps at the given clock.
func (n *Network) ThroughputGbps(clockHz float64) float64 {
	return n.ThroughputBitsPerCycle() * clockHz / 1e9
}

// ThroughputPacketsPerCycle returns delivered packets per cycle.
func (n *Network) ThroughputPacketsPerCycle() float64 {
	if n.MeasuredCycles == 0 {
		return 0
	}
	return float64(n.Delivered.TotalPackets()) / float64(n.MeasuredCycles)
}

// String summarises the headline numbers.
func (n *Network) String() string {
	return fmt.Sprintf("delivered=%d pkts (%.1f%% CPU) %.2f bits/cycle, mean latency %.1f cycles",
		n.Delivered.TotalPackets(), 100*n.Delivered.Share(0),
		n.ThroughputBitsPerCycle(), n.Latency.Mean())
}

// NRMSEScore returns the paper's normalised fit score where 1 is a perfect
// fit and -inf the worst: 1 - RMSE(pred, target) / stddev(target). This is
// the score the paper quotes as "NRMSE" (§IV.C: 0.79 validation, 0.68/0.05
// test).
func NRMSEScore(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("stats: NRMSE over mismatched or empty slices")
	}
	var mean float64
	for _, t := range target {
		mean += t
	}
	mean /= float64(len(target))
	var ssRes, ssTot float64
	for i := range target {
		d := pred[i] - target[i]
		ssRes += d * d
		v := target[i] - mean
		ssTot += v * v
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - math.Sqrt(ssRes/ssTot)
}

// R2 returns the coefficient of determination for reference alongside the
// NRMSE score.
func R2(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("stats: R2 over mismatched or empty slices")
	}
	var mean float64
	for _, t := range target {
		mean += t
	}
	mean /= float64(len(target))
	var ssRes, ssTot float64
	for i := range target {
		d := pred[i] - target[i]
		ssRes += d * d
		v := target[i] - mean
		ssTot += v * v
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
