package experiments

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// collectWindows runs the PEARL path with an OnWindow hook and returns
// the sample sequence alongside the final result.
func collectWindows(t *testing.T, opts Options) ([]WindowStats, Result) {
	t.Helper()
	var wins []WindowStats
	opts.OnWindow = func(ws WindowStats) { wins = append(wins, ws) }
	res, err := runOne(pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	return wins, res
}

// TestWindowSamplesTileTheMeasurement: the per-window deltas must
// partition the measured run exactly — indices are contiguous from 0,
// the windows tile MeasureCycles (with one trailing partial window when
// it is not a multiple of the reservation window), and the summed
// deliveries equal the final result's cumulative counters.
func TestWindowSamplesTileTheMeasurement(t *testing.T) {
	opts := tiny()
	opts.MeasureCycles = 5750 // not a multiple of the 500-cycle window: forces a partial tail
	wins, res := collectWindows(t, opts)

	rw := int64(config.PEARLDyn().ReservationWindow)
	wantWindows := int(opts.MeasureCycles / rw)
	if opts.MeasureCycles%rw != 0 {
		wantWindows++
	}
	if len(wins) != wantWindows {
		t.Fatalf("%d windows over %d cycles (RW %d), want %d", len(wins), opts.MeasureCycles, rw, wantWindows)
	}

	var cycles int64
	var packets, bits float64
	for i, ws := range wins {
		if ws.Window != i {
			t.Fatalf("window %d carries index %d; indices must be contiguous from 0", i, ws.Window)
		}
		want := rw
		if i == len(wins)-1 {
			want = opts.MeasureCycles - rw*int64(len(wins)-1)
		}
		if ws.Cycles != want {
			t.Fatalf("window %d spans %d cycles, want %d", i, ws.Cycles, want)
		}
		if ws.LatencyP99Cycles < ws.LatencyP50Cycles {
			t.Fatalf("window %d percentiles inverted: p50 %v > p99 %v", i, ws.LatencyP50Cycles, ws.LatencyP99Cycles)
		}
		if ws.WavelengthsOn <= 0 || ws.PowerW <= 0 {
			t.Fatalf("window %d photonic state: %+v", i, ws)
		}
		cycles += ws.Cycles
		packets += float64(ws.DeliveredPackets)
		bits += ws.ThroughputBitsPerCycle * float64(ws.Cycles)
	}
	if cycles != opts.MeasureCycles {
		t.Fatalf("windows tile %d cycles, want %d", cycles, opts.MeasureCycles)
	}
	if got := float64(res.Metrics.Delivered.TotalPackets()); packets != got {
		t.Fatalf("window deliveries sum to %v, final result counts %v", packets, got)
	}
	if got := res.ThroughputBitsPerCycle() * float64(opts.MeasureCycles); math.Abs(bits-got) > 1e-6*got {
		t.Fatalf("window throughput integrates to %v bits, final result says %v", bits, got)
	}
}

// TestOnWindowIsPureObservation is the no-observer-effect guarantee
// the golden results and benchgate rest on: running with a hook yields
// the exact Result a hookless run produces, and two hooked runs emit
// identical sample sequences.
func TestOnWindowIsPureObservation(t *testing.T) {
	opts := tiny()
	bare, err := runOne(pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	wins1, hooked := collectWindows(t, opts)
	if !reflect.DeepEqual(bare.Metrics, hooked.Metrics) || bare.Retired != hooked.Retired {
		t.Fatal("OnWindow hook perturbed the simulation result")
	}
	wins2, _ := collectWindows(t, opts)
	if !reflect.DeepEqual(wins1, wins2) {
		t.Fatal("window sample sequence is not deterministic for a fixed seed")
	}
}

// TestPercentileEdgeCases pins the nearest-rank edge behavior of
// stats.NearestRank, the one percentile every window sample, run result
// and /metrics snapshot reports, driven through its sorted-slice form and
// both Histogram wrappers. The audited hazard: at p→0⁺ the raw rank
// ceil(p/100·n) would be 0 (index −1); NaN p makes the float→int
// conversion implementation-defined. NearestRank guards both (p<=0 and
// NaN short-circuit to the minimum), and this table keeps any future
// edit honest about it.
func TestPercentileEdgeCases(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty p50", nil, 50, 0},
		{"empty p0", nil, 0, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p negative", []float64{7}, -5, 7},
		{"single p tiny", []float64{7}, 1e-9, 7},
		{"single p smallest positive", []float64{7}, math.SmallestNonzeroFloat64, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single p over 100", []float64{7}, 150, 7},
		{"single p NaN", []float64{7}, math.NaN(), 7},
		{"pair p0", []float64{2, 1}, 0, 1},
		{"pair p tiny", []float64{2, 1}, 1e-9, 1},
		{"pair p50 is first", []float64{2, 1}, 50, 1},
		{"pair just past p50", []float64{2, 1}, math.Nextafter(50, 100), 2},
		{"pair p100", []float64{2, 1}, 100, 2},
		{"pair p NaN", []float64{2, 1}, math.NaN(), 1},
		{"quad p25 boundary", []float64{40, 10, 30, 20}, 25, 10},
		{"quad just past p25", []float64{40, 10, 30, 20}, math.Nextafter(25, 100), 20},
		{"quad p75 boundary", []float64{40, 10, 30, 20}, 75, 30},
		{"quad p99", []float64{40, 10, 30, 20}, 99, 40},
		{"quad p tiny", []float64{40, 10, 30, 20}, 1e-12, 10},
		{"ties p50", []float64{5, 1, 5, 5}, 50, 5},
		{"ties p1", []float64{5, 1, 5, 5}, 1, 1},
		{"seven p90 rounds up", []float64{7, 6, 5, 4, 3, 2, 1}, 90, 7},
		{"seven p1", []float64{7, 6, 5, 4, 3, 2, 1}, 1, 1},
		{"hundred p0", hundred, 0, 1},
		{"hundred p1", hundred, 1, 1},
		{"hundred p50", hundred, 50, 50},
		{"hundred p90", hundred, 90, 90},
		{"hundred p99", hundred, 99, 99},
		{"hundred p100", hundred, 100, 100},
	}
	for _, tc := range cases {
		sorted := append([]float64(nil), tc.samples...)
		sort.Float64s(sorted)
		if got := stats.NearestRank(sorted, tc.p); got != tc.want {
			t.Errorf("%s: NearestRank = %v, want %v", tc.name, got, tc.want)
		}
		h := stats.NewHistogram(0)
		for _, v := range tc.samples {
			h.Add(v)
		}
		if got := h.Percentiles(tc.p); got[0] != tc.want {
			t.Errorf("%s: Histogram.Percentiles = %v, want %v", tc.name, got[0], tc.want)
		}
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Histogram.Percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}
