package experiments

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

// A cancellation landing DURING the final cycle chunk — after the last
// top-of-loop context check, before the return — races a fully computed
// result. The run completed every requested cycle, so the caller must
// get the result, not a spurious context error. These tests pin that by
// scheduling cancel() as a simulator event inside the last cycle: the
// chunk loop never sees the cancellation until all n cycles are done.

func newTestLockstep(t *testing.T, n int) *lockstep {
	t.Helper()
	cfg := config.PEARLDyn()
	pair := traffic.TestPairs()[0]
	opts := Quick()
	l, err := newLockstep(pearlAt(cfg, pair, nil), opts, ReplicaSeeds(opts.Seed, cfg.Name(), pair.Name(), n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.close)
	return l
}

func TestLockstepRunCtxCompletedRunSurvivesLateCancel(t *testing.T) {
	// One replica is the shape every single-seed Run takes; two cover the
	// multi-lane hand-off.
	for _, replicas := range []int{1, 2} {
		l := newTestLockstep(t, replicas)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const n = 64
		// Replica 0's engine fires the cancel inside the final (only) chunk.
		l.replicas[0].engine.Schedule(n-1, func(int64) { cancel() })
		if err := l.runCtx(ctx, n); err != nil {
			t.Fatalf("%d replicas: runCtx returned %v after completing all %d cycles", replicas, err, n)
		}
		for i := range l.replicas {
			if got := l.replicas[i].engine.Cycle(); got != n {
				t.Fatalf("%d replicas: replica %d stopped at cycle %d, want %d", replicas, i, got, n)
			}
		}
	}
}

func TestLockstepRunCtxCancelledMidRunStillErrors(t *testing.T) {
	// Sanity: the late-cancel rule must not weaken real cancellation — a
	// cancel with chunks still to run aborts at the next chunk boundary
	// with the context error.
	l := newTestLockstep(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l.replicas[0].engine.Schedule(10, func(int64) { cancel() })
	if err := l.runCtx(ctx, 10*runCtxChunk); err != context.Canceled {
		t.Fatalf("runCtx = %v, want context.Canceled", err)
	}
	if got := l.replicas[0].engine.Cycle(); got != runCtxChunk {
		t.Fatalf("cancelled run stopped at cycle %d, want the first chunk boundary %d", got, runCtxChunk)
	}
}
