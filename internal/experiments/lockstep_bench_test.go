package experiments

import (
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

// benchReplicas and benchReplicaChunk fix the shape of the replicated
// kernel benchmark: 8 lockstep seeds stepped in 1024-cycle chunks —
// the chunk length Run uses — with the cross-worker synchronisation at
// each chunk boundary inside the timed region.
const (
	benchReplicas     = 8
	benchReplicaChunk = runCtxChunk
	benchWarmupCycles = 2000
)

// BenchmarkKernelReplicated times the lockstep replica engine at N=8 on
// the PEARL-Dyn stack the root package's BenchmarkKernel steps alone.
// One op is one replica-cycle, so ns/op here versus BenchmarkKernel's
// ns/op is the aggregate cycles·replicas/sec speedup of replicated over
// sequential execution — cmd/benchgate derives and gates that ratio in
// CI (scaled by GOMAXPROCS; a single-core runner can only break even).
func BenchmarkKernelReplicated(b *testing.B) {
	cfg := config.PEARLDyn()
	pair := traffic.TestPairs()[0]
	opts := Quick()
	seeds := ReplicaSeeds(opts.Seed, cfg.Name(), pair.Name(), benchReplicas)
	l, err := newLockstep(pearlAt(cfg, pair, nil), opts, seeds)
	if err != nil {
		b.Fatal(err)
	}
	defer l.close()
	l.step(benchWarmupCycles)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchReplicas * benchReplicaChunk {
		l.step(benchReplicaChunk)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "replica_cycles/sec")
	}
}
