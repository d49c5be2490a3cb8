package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p, want float64
	}{{50, 50}, {90, 90}, {10, 10}, {89.5, 90}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 90, true}, // rank 90, 10 beyond
		{99, 90, false}, // rank 90, 9 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{19, 50, false}, // rank 10, 9 beyond
		{0, 50, false},
		{1000, 0, false},
		{1000, 100, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want accepted=%v", c.p, c.n, err, c.ok)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	got, err := summarize(seq(250))
	if err != nil {
		t.Fatal(err)
	}
	if got != (timing{P50: 125, P90: 225, N: 250}) {
		t.Errorf("summarize(1..250) = %+v", got)
	}
	if _, err := summarize(seq(60)); err == nil {
		t.Error("summarize accepted a p90 with 6 samples beyond it")
	}
}

func TestFastestKeepsEachOperationsMinimum(t *testing.T) {
	f := make(fastest, 2)
	for _, d := range []time.Duration{3, 2, 5} {
		f.add(0, d*time.Millisecond)
	}
	if f[0] != 2*time.Millisecond || f[1] != 0 {
		t.Errorf("fastest = %v, want [2ms 0s]", f)
	}
}

func TestPassMetricsUseFastestTimes(t *testing.T) {
	var ops []passOp
	var best fastest
	for i := 0; i < 80; i++ {
		ops = append(ops, passOp{backendPEARL, 1000})
		best = append(best, 10*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, passOp{backendCMESH, 1000})
		best = append(best, 40*time.Millisecond)
	}
	// An operation that never completed is left out.
	ops = append(ops, passOp{backendCMESH, 1000})
	best = append(best, 0)
	o := &outcome{}
	if err := passMetrics(o, ops, best); err != nil {
		t.Fatal(err)
	}
	want := map[string]measure{
		"pearl_cycles_per_s": {value: 100000, n: 80},
		"cmesh_cycles_per_s": {value: 25000, n: 20},
		"ops_per_s":          {value: 62.5, n: 100},
		"op_ms_p50":          {value: 10, n: 100},
		"op_ms_p90":          {value: 40, n: 100},
	}
	if len(o.metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(o.metrics), len(want))
	}
	for _, m := range o.metrics {
		w := want[m.name]
		if math.Abs(m.value-w.value) > 1e-9*w.value || m.n != w.n {
			t.Errorf("%s = %v (n=%d), want %v (n=%d)", m.name, m.value, m.n, w.value, w.n)
		}
	}
	if err := passMetrics(&outcome{}, ops[:99], best[:99]); err == nil {
		t.Error("passMetrics reported a p90 over 99 operations")
	}
}
