package pearl

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// Golden regression values for the frozen calibration (seed 2018,
// fluidanimate+DCT, 1000 warmup + 10000 measured cycles). The whole stack
// is deterministic, so these must match bit-for-bit run over run; any
// intentional change to the traffic model, router microarchitecture or
// power accounting must update them consciously.
func goldenOptions() experiments.Options {
	opts := experiments.Quick()
	opts.MeasureCycles = 10000
	opts.WarmupCycles = 1000
	return opts
}

// pearlPoint is a photonic point under its registered controller.
func pearlPoint(cfg config.Config, pair traffic.Pair) experiments.Point {
	return experiments.Point{Backend: experiments.BackendPEARL, Config: cfg, Pair: pair}
}

// goldenRun runs a photonic point once at the golden options.
func goldenRun(t *testing.T, cfg config.Config, pair traffic.Pair) experiments.Result {
	t.Helper()
	res, err := runOne(pearlPoint(cfg, pair), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGoldenPEARLDyn(t *testing.T) {
	res := goldenRun(t, config.PEARLDyn(), traffic.TestPairs()[0])
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("latency = %.10f, golden 86.6041527471", got)
	}
}

func TestGoldenDynRW500(t *testing.T) {
	res := goldenRun(t, config.DynRW(500), traffic.TestPairs()[0])
	if got := res.Metrics.Delivered.TotalBits(); got != 9158528 {
		t.Errorf("delivered bits = %d, golden 9158528", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-0.7942302674) > 1e-9 {
		t.Errorf("laser = %.10f, golden 0.7942302674", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-215.9726978920) > 1e-9 {
		t.Errorf("latency = %.10f, golden 215.9726978920", got)
	}
}

// TestGoldenReplicaZero pins the replicated engine's byte-identity
// contract: replica 0 of a multi-seed lockstep run carries the base
// seed unchanged and must reproduce the single-run golden values
// exactly — same numbers, same cache identity.
func TestGoldenReplicaZero(t *testing.T) {
	cfg := config.PEARLDyn()
	pair := traffic.TestPairs()[0]
	opts := goldenOptions()
	seeds := experiments.ReplicaSeeds(opts.Seed, cfg.Name(), pair.Name(), 3)
	results, err := experiments.Run(context.Background(), pearlPoint(cfg, pair), opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	res := results[0]
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("replica 0 delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("replica 0 laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("replica 0 latency = %.10f, golden 86.6041527471", got)
	}
}

// TestGoldenCMESH pins the electrical baseline bit-for-bit over link
// scales 1, 2 and 4 (the Figure 5 bandwidth sweep), three test pairs
// (fluidanimate+DCT, the GPU-heavy fmm+Reduction and the CPU-heavy
// x264+QuasiRandom) and two seeds. Floats compare with ==: the mesh's
// router microarchitecture may be restructured only if every delivered
// bit, latency sample and joule stays where it was.
func TestGoldenCMESH(t *testing.T) {
	golden := []struct {
		pair              int // index into traffic.TestPairs()
		linkScale         int
		seed              uint64
		bits              uint64
		latency, cpu, gpu float64 // mean latencies, cycles
		energyPerBit      float64 // J/bit
		electricalJ       float64 // total electrical energy, J
	}{
		{0, 1, 2018, 6562944, 279.29125515076197, 72.82227602905569, 521.9194764546877, 6.048862662126301e-12, 4.244540160005452e-05},
		{0, 1, 7, 7501696, 417.55178117799966, 84.40167548500882, 802.3178866963717, 6.382197791689776e-12, 5.1198092800100056e-05},
		{0, 2, 2018, 3335552, 581.4084658615329, 575.5347536617843, 586.1948784722222, 6.6995644167429296e-12, 2.4215334399998317e-05},
		{0, 2, 7, 3541760, 532.8785910567075, 473.34965654775095, 609.7907243057543, 7.004669737844776e-12, 2.7053043199998774e-05},
		{0, 4, 2018, 1664000, 1241.2299537393985, 1445.387012987013, 1155.045230263158, 7.543586313713384e-12, 1.3715084799998068e-05},
		{0, 4, 7, 1824512, 1142.941117764471, 1333.1905574516495, 1040.0940959409595, 7.737874991969341e-12, 1.54183039999983e-05},
		{7, 1, 2018, 6379648, 214.4363910168271, 37.56158714703019, 420.3600680175712, 6.098646052859843e-12, 4.18579840000509e-05},
		{7, 1, 7, 6615552, 336.4828506097561, 49.40766172750271, 656.6509471987102, 5.848997171994163e-12, 4.023960320004381e-05},
		{7, 2, 2018, 3570688, 513.1760110294117, 482.03689275893674, 544.4873271889401, 6.877800454260818e-12, 2.674440959999864e-05},
		{7, 2, 7, 3711744, 542.449273791459, 461.3037296037296, 612.9748784440843, 6.8845209868628585e-12, 2.7502835199998695e-05},
		{7, 4, 2018, 1751168, 1131.516885743175, 1195.5173684210527, 1091.5822660098522, 7.611201115462833e-12, 1.4672934399998175e-05},
		{7, 4, 7, 1786752, 1131.0759941703102, 1122.9686581782566, 1137.0720753350236, 7.490596000521854e-12, 1.4671500799998133e-05},
		{14, 1, 2018, 5960064, 45.20280724140681, 36.95938583457157, 79.25245499181669, 6.538516999072787e-12, 4.120876800004427e-05},
		{14, 1, 7, 5430656, 31.614157014157016, 28.18804664723032, 47.65724037055095, 6.3416787542709215e-12, 3.8054131200028264e-05},
		{14, 2, 2018, 3977088, 476.1724406383807, 345.36744269987366, 810.7940904893813, 7.0492798601902015e-12, 2.994579199999903e-05},
		{14, 2, 7, 3964288, 365.2246406019078, 334.84993784407743, 459.6175496688742, 7.0463250029468575e-12, 3.0604275199999074e-05},
		{14, 4, 2018, 1928960, 869.5619299087854, 894.5824980724749, 828.2748091603054, 7.813554271814396e-12, 1.644721919999843e-05},
		{14, 4, 7, 2083200, 964.26548258939, 987.2966640190627, 931.3339011925043, 7.669571277247482e-12, 1.7608844799998475e-05},
	}
	for _, g := range golden {
		pair := traffic.TestPairs()[g.pair]
		t.Run(fmt.Sprintf("%s/x%d/seed%d", pair.Name(), g.linkScale, g.seed), func(t *testing.T) {
			opts := goldenOptions()
			opts.Seed = g.seed
			res, err := runOne(experiments.Point{Backend: experiments.BackendCMESH, Config: config.Default(), LinkScale: g.linkScale, Pair: pair}, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if got := m.Delivered.TotalBits(); got != g.bits {
				t.Errorf("delivered bits = %d, golden %d", got, g.bits)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"mean latency", m.Latency.Mean(), g.latency},
				{"CPU latency", m.CPULatency.Mean(), g.cpu},
				{"GPU latency", m.GPULatency.Mean(), g.gpu},
				{"energy/bit", res.Account.EnergyPerBitJ(), g.energyPerBit},
				{"electrical energy", res.Account.TotalElectricalEnergyJ(), g.electricalJ},
			} {
				if c.got != c.want {
					t.Errorf("%s = %v, golden %v", c.name, c.got, c.want)
				}
			}
		})
	}
}
