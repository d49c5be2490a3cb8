package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// tiny returns an option set small enough for unit tests.
func tiny() Options {
	o := Quick()
	o.MeasureCycles = 6000
	o.CollectCycles = 8000
	o.WarmupCycles = 1000
	o.Pairs = o.Pairs[:2]
	o.TrainPairs = o.TrainPairs[:3]
	o.ValPairs = o.ValPairs[:1]
	return o
}

func TestRunPEARLProducesMetrics(t *testing.T) {
	res, err := runOne(pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBitsPerCycle() <= 0 {
		t.Fatal("no throughput")
	}
	if res.Account.AverageLaserPowerW() < 1.159 || res.Account.AverageLaserPowerW() > 1.161 {
		t.Fatalf("64WL static laser power %v", res.Account.AverageLaserPowerW())
	}
	if res.InjectedCPUShare <= 0 || res.InjectedCPUShare >= 1 {
		t.Fatalf("CPU share %v", res.InjectedCPUShare)
	}
	if res.Name != "PEARL-Dyn(64WL)" {
		t.Fatalf("name %q", res.Name)
	}
}

func TestRunPEARLNeedsPredictorForML(t *testing.T) {
	if _, err := runOne(pearlAt(config.MLRW(500, true), traffic.TestPairs()[0], nil), tiny()); err == nil {
		t.Fatal("expected error without predictor")
	}
}

func TestRunCMESHProducesMetrics(t *testing.T) {
	res, err := runOne(cmeshAt(1, traffic.TestPairs()[0]), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBitsPerCycle() <= 0 {
		t.Fatal("no throughput")
	}
	if res.Name != "CMESH" {
		t.Fatalf("name %q", res.Name)
	}
	res2, err := runOne(cmeshAt(2, traffic.TestPairs()[0]), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Name, "1/2") {
		t.Fatalf("scaled name %q", res2.Name)
	}
	if res2.ThroughputBitsPerCycle() > res.ThroughputBitsPerCycle() {
		t.Fatal("halving link bandwidth should not raise throughput")
	}
}

func TestRunDeterminism(t *testing.T) {
	opts := tiny()
	a, err := runOne(pearlAt(config.DynRW(500), traffic.TestPairs()[0], nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(pearlAt(config.DynRW(500), traffic.TestPairs()[0], nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputBitsPerCycle() != b.ThroughputBitsPerCycle() ||
		a.Account.AverageLaserPowerW() != b.Account.AverageLaserPowerW() {
		t.Fatal("same options produced different results")
	}
}

func TestPairedSeeding(t *testing.T) {
	// Different configurations must see the same workload for the same
	// pair: injected CPU share under identical (pair, seed) should match
	// closely between the two static photonic configs.
	opts := tiny()
	a, _ := runOne(pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), opts)
	b, _ := runOne(pearlAt(config.PEARLFCFS(), traffic.TestPairs()[0], nil), opts)
	// The demand processes are seeded identically, but the accepted mix
	// shifts with the closed loop (round-trip latency gates MSHR reuse),
	// so allow a generous band.
	if math.Abs(a.InjectedCPUShare-b.InjectedCPUShare) > 0.2 {
		t.Fatalf("paired runs diverged: %v vs %v", a.InjectedCPUShare, b.InjectedCPUShare)
	}
}

func TestCollectDatasetPairsWindows(t *testing.T) {
	opts := tiny()
	policy := core.RandomPolicy{RNG: sim.NewRNG(1)}
	ds, err := CollectDataset(opts.TrainPairs[:1], 500, opts, policy)
	if err != nil {
		t.Fatal(err)
	}
	// ~ (warmup+collect)/window windows per router minus the first, x17
	// routers.
	if ds.Len() < 17*10 {
		t.Fatalf("dataset only has %d examples", ds.Len())
	}
	if ds.Features() != core.FeatureCount {
		t.Fatalf("feature width %d", ds.Features())
	}
	// Labels are non-negative flit counts.
	for i, l := range ds.Labels() {
		if l < 0 {
			t.Fatalf("label %d negative: %v", i, l)
		}
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	opts := tiny()
	model, err := Train(500, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model.Window != 500 || model.Ridge() == nil {
		t.Fatalf("model %+v", model)
	}
	if model.Hash == "" || model.FeatureCount != core.FeatureCount {
		t.Fatalf("artifact identity incomplete: hash=%q features=%d", model.Hash, model.FeatureCount)
	}
	if model.ValScore < 0.2 {
		t.Fatalf("validation score %v too weak; the burst process is learnable", model.ValScore)
	}
	ev, err := Evaluate(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TestScore < 0 {
		t.Fatalf("test score %v below mean-predictor baseline", ev.TestScore)
	}
	if ev.TopStateAccuracy < 0.8 {
		t.Fatalf("top-state accuracy %v", ev.TopStateAccuracy)
	}
	if ev.Examples == 0 {
		t.Fatal("no test examples")
	}
}

func TestTrainRequiresPairs(t *testing.T) {
	opts := tiny()
	opts.TrainPairs = nil
	if _, err := Train(500, opts); err == nil {
		t.Fatal("expected error without training pairs")
	}
}

func TestTableRendering(t *testing.T) {
	ti := TableI()
	if v, ok := ti.Value("CPU cores", "value"); !ok || v != 32 {
		t.Fatalf("Table I CPU cores = %v, %v", v, ok)
	}
	tii := TableIIFig()
	if v, ok := tii.Value("machine learning", "area"); !ok || v != 0.018 {
		t.Fatalf("Table II ML area = %v", v)
	}
	tv := TableV()
	if v, ok := tv.Value("laser power 64WL (W)", "value"); !ok || v != 1.16 {
		t.Fatalf("Table V 64WL power = %v", v)
	}
	s := tv.String()
	for _, want := range []string{"Table V", "receiver sensitivity", "-15"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	if _, ok := ti.Value("CPU cores", "nonexistent"); ok {
		t.Fatal("lookup of missing column should fail")
	}
	if _, ok := ti.Value("nonexistent", "value"); ok {
		t.Fatal("lookup of missing row should fail")
	}
}

func TestFigure4Shares(t *testing.T) {
	s := NewSuite(tiny())
	tbl, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		cpu, gpu := r.Values[0], r.Values[1]
		if math.Abs(cpu+gpu-100) > 1e-9 {
			t.Fatalf("%s shares do not sum to 100: %v + %v", r.Label, cpu, gpu)
		}
		if cpu <= 0 || gpu <= 0 {
			t.Fatalf("%s has a starved class", r.Label)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	s := NewSuite(tiny())
	tbl, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// CMESH energy/bit must exceed PEARL-Dyn at every bandwidth point
	// (the paper's headline energy claim).
	for i, col := range tbl.Columns {
		dyn := tbl.Rows[0].Values[i]
		cmesh := tbl.Rows[2].Values[i]
		if cmesh <= dyn {
			t.Errorf("%s: CMESH %.3f pJ/bit not above PEARL-Dyn %.3f", col, cmesh, dyn)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	s := NewSuite(tiny())
	tbl, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 windows x 4 turn-on points", len(tbl.Rows))
	}
	// Power variation across turn-on latencies is small (<10% relative
	// in this reduced test harness; paper: <1% at full scale).
	for g := 0; g < 2; g++ {
		base := tbl.Rows[g*4].Values[0]
		for i := 1; i < 4; i++ {
			p := tbl.Rows[g*4+i].Values[0]
			if math.Abs(p-base)/base > 0.10 {
				t.Errorf("laser power varies too much with turn-on: %v vs %v", p, base)
			}
		}
	}
}

func TestSuiteCachesModels(t *testing.T) {
	s := NewSuite(tiny())
	m1, err := s.Model(500)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Model(500)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("model not cached")
	}
}

func TestMeanOverPairsErrors(t *testing.T) {
	if _, err := meanOverPairs(nil, nil); err == nil {
		t.Fatal("expected error for empty pairs")
	}
}
