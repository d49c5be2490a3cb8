package experiments

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/traffic"
)

func TestReplicaSeedSchema(t *testing.T) {
	const base = 2018
	cfg := config.PEARLDyn()
	pair := traffic.TestPairs()[0]

	if got := ReplicaSeed(base, cfg.Name(), pair.Name(), 0); got != base {
		t.Fatalf("replica 0 seed = %d, want base %d unchanged", got, base)
	}
	// Unlike runSeed (which drops the config name so configurations stay
	// paired on a workload), the replica fan folds the config name in:
	// two configs on the same pair must NOT share derived seeds.
	a := ReplicaSeed(base, config.PEARLDyn().Name(), pair.Name(), 1)
	b := ReplicaSeed(base, config.PEARLFCFS().Name(), pair.Name(), 1)
	if a == b {
		t.Fatalf("config name not folded into derivation: %d == %d", a, b)
	}
	// Different pairs, indices, and bases all produce distinct seeds.
	if a == ReplicaSeed(base, cfg.Name(), traffic.TestPairs()[1].Name(), 1) {
		t.Fatal("pair name not folded into derivation")
	}
	if a == ReplicaSeed(base, cfg.Name(), pair.Name(), 2) {
		t.Fatal("replica index not folded into derivation")
	}
	if a == ReplicaSeed(base+1, cfg.Name(), pair.Name(), 1) {
		t.Fatal("base seed not folded into derivation")
	}
	seeds := ReplicaSeeds(base, cfg.Name(), pair.Name(), 4)
	if len(seeds) != 4 || seeds[0] != base {
		t.Fatalf("ReplicaSeeds = %v, want 4 seeds starting at base", seeds)
	}
	for i, s := range seeds {
		if s == 0 {
			t.Fatalf("seed %d is zero (reserved as default sentinel)", i)
		}
		if s != ReplicaSeed(base, cfg.Name(), pair.Name(), i) {
			t.Fatalf("ReplicaSeeds[%d] disagrees with ReplicaSeed", i)
		}
	}
}

// sameResult asserts bit-identity across every scalar a Result exposes.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Name != want.Name || got.Pair.Name() != want.Pair.Name() {
		t.Fatalf("%s: identity mismatch: (%s,%s) vs (%s,%s)",
			label, got.Name, got.Pair.Name(), want.Name, want.Pair.Name())
	}
	if got.Metrics.Delivered.TotalBits() != want.Metrics.Delivered.TotalBits() {
		t.Errorf("%s: TotalBits %d != %d", label, got.Metrics.Delivered.TotalBits(), want.Metrics.Delivered.TotalBits())
	}
	if got.Metrics.Latency.Mean() != want.Metrics.Latency.Mean() {
		t.Errorf("%s: latency %v != %v", label, got.Metrics.Latency.Mean(), want.Metrics.Latency.Mean())
	}
	if got.Account.AverageLaserPowerW() != want.Account.AverageLaserPowerW() {
		t.Errorf("%s: laser %v != %v", label, got.Account.AverageLaserPowerW(), want.Account.AverageLaserPowerW())
	}
	if got.InjectedCPUShare != want.InjectedCPUShare {
		t.Errorf("%s: CPU share %v != %v", label, got.InjectedCPUShare, want.InjectedCPUShare)
	}
	if got.Retired != want.Retired {
		t.Errorf("%s: retired %d != %d", label, got.Retired, want.Retired)
	}
	if got.TurnOnStalls != want.TurnOnStalls {
		t.Errorf("%s: turn-on stalls %d != %d", label, got.TurnOnStalls, want.TurnOnStalls)
	}
}

// checkReplicatedMatchesSequential pins Run's seed contract on both
// stepping modes: a replica-safe point's seeds share one lockstep
// engine, a non-replica-safe point runs them one by one, and either way
// results[i] is bit-identical to Run over seeds[i] alone.
func checkReplicatedMatchesSequential(t *testing.T, p Point, lockstep bool) {
	t.Helper()
	if got := CanReplicate(p) == nil; got != lockstep {
		t.Fatalf("CanReplicate = %v, want lockstep %v", CanReplicate(p), lockstep)
	}
	opts := tiny()
	seeds := ReplicaSeeds(opts.Seed, p.Name(), p.Pair.Name(), 3)
	results, err := Run(context.Background(), p, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(results), len(seeds))
	}
	for i, seed := range seeds {
		want, err := Run(context.Background(), p, opts, []uint64{seed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, p.Name(), results[i], want[0])
	}
}

func TestReplicatedMatchesSequentialPEARL(t *testing.T) {
	checkReplicatedMatchesSequential(t, pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), true)
}

func TestReplicatedMatchesSequentialCMESH(t *testing.T) {
	checkReplicatedMatchesSequential(t, cmeshAt(2, traffic.TestPairs()[1]), true)
}

// TestReplicatedMatchesSequentialOnline covers the per-seed fallback:
// the online controller is not replica-safe, so Run steps its seeds
// one by one.
func TestReplicatedMatchesSequentialOnline(t *testing.T) {
	checkReplicatedMatchesSequential(t, pearlAt(config.OnlineRW(500), traffic.TestPairs()[0], nil), false)
}

func TestReplicatedGOMAXPROCSInvariance(t *testing.T) {
	cfg := config.DynRW(500)
	pair := traffic.TestPairs()[0]
	opts := tiny()
	opts.MeasureCycles = 3000
	const n = 4
	p := pearlAt(cfg, pair, nil)
	seeds := ReplicaSeeds(opts.Seed, cfg.Name(), pair.Name(), n)

	prev := runtime.GOMAXPROCS(1)
	one, err1 := Run(context.Background(), p, opts, seeds)
	runtime.GOMAXPROCS(4)
	four, err4 := Run(context.Background(), p, opts, seeds)
	runtime.GOMAXPROCS(prev)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	for i := range one {
		sameResult(t, "procs", one[i], four[i])
	}
}

func TestReplicatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, pearlAt(config.PEARLDyn(), traffic.TestPairs()[0], nil), tiny(), []uint64{1, 2}); err == nil {
		t.Fatal("cancelled context should abort the replicated run")
	}
}

// stubController is a hand-built controller for gate tests: the
// capability declaration, not the policy it mints, is what CanReplicate
// judges.
type stubController struct {
	name string
	caps controller.Capabilities
	mint func(seed uint64) (core.StatePolicy, error)
}

func (c stubController) Name() string                          { return c.name }
func (c stubController) Capabilities() controller.Capabilities { return c.caps }
func (c stubController) Policy(seed uint64) (core.StatePolicy, error) {
	return c.mint(seed)
}

func TestCanReplicate(t *testing.T) {
	flat := core.PredictorFunc(func([]float64) float64 { return 1 })
	ml := config.MLRW(500, true)
	safe := stubController{
		name: "stub-safe",
		caps: controller.Capabilities{ReplicaSafe: true, NeedsModel: true},
		mint: func(uint64) (core.StatePolicy, error) {
			return core.MLPolicy{Model: flat, Allow8WL: true}, nil
		},
	}
	unsafe := safe
	unsafe.name = "stub-unsafe"
	unsafe.caps.ReplicaSafe = false

	pair := traffic.TestPairs()[0]
	if err := CanReplicate(pearlAt(config.PEARLDyn(), pair, nil)); err != nil {
		t.Errorf("static config's registered controller should replicate: %v", err)
	}
	if err := CanReplicate(pearlAt(ml, pair, nil)); err == nil {
		t.Error("ML config without a model artifact must not replicate (controller construction fails)")
	}
	if err := CanReplicate(pearlAt(ml, pair, unsafe)); err == nil {
		t.Error("controller declaring ReplicaSafe=false must not replicate")
	}
	if err := CanReplicate(pearlAt(ml, pair, safe)); err != nil {
		t.Errorf("replica-safe controller rejected: %v", err)
	}
	if err := CanReplicate(cmeshAt(4, pair)); err != nil {
		t.Errorf("CMESH always replicates: %v", err)
	}
	// The replica-safe controller must drive a real replicated ML run end
	// to end.
	opts := tiny()
	opts.MeasureCycles = 2000
	if _, err := Run(context.Background(), pearlAt(ml, pair, safe), opts, []uint64{1, 2}); err != nil {
		t.Errorf("replicated ML run with safe controller: %v", err)
	}
}
