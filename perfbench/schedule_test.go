package main

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

func testPairNames() map[string]bool {
	names := map[string]bool{}
	for _, p := range traffic.TestPairs() {
		names[p.Name()] = true
	}
	return names
}

// validJob checks a scheduled job names a test pair and a known
// configuration, with a usable seed and run length.
func validJob(t *testing.T, what string, j simJob) {
	t.Helper()
	if !testPairNames()[j.pair.Name()] {
		t.Errorf("%s: %s is not a test pair", what, j.pair.Name())
	}
	switch j.backend {
	case "cmesh":
	case "pearl":
		if _, err := config.ByName(j.preset); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	default:
		t.Errorf("%s: backend %q", what, j.backend)
	}
	if j.seed == 0 || j.measure <= 0 || j.warmup <= 0 {
		t.Errorf("%s: seed %d warmup %d measure %d", what, j.seed, j.warmup, j.measure)
	}
}

func TestMixScheduleIsSeeded(t *testing.T) {
	ws1, ws2 := mixWorkingSet(7), mixWorkingSet(7)
	other := mixWorkingSet(8)
	differs := false
	for i := 0; i < 1000; i++ {
		a, b := mixOpAt(7, i, ws1), mixOpAt(7, i, ws2)
		if a != b {
			t.Fatalf("op %d differs between two schedules at one seed: %+v vs %+v", i, a, b)
		}
		if a != mixOpAt(8, i, other) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 give the same schedule")
	}
}

func TestMixScheduleShares(t *testing.T) {
	const n = 20000
	ws := mixWorkingSet(3)
	var count [3]int
	coldSeeds := map[uint64]bool{}
	for _, j := range ws {
		validJob(t, "working set", j)
		coldSeeds[j.seed] = true
	}
	for i := 0; i < n; i++ {
		op := mixOpAt(3, i, ws)
		count[op.class]++
		switch op.class {
		case classHit:
			if op.job != ws[op.hit] {
				t.Fatalf("hit %d does not repeat working-set job %d", i, op.hit)
			}
		case classCold:
			validJob(t, "cold", op.job)
			if coldSeeds[op.job.seed] {
				t.Fatalf("cold job %d reuses seed %d", i, op.job.seed)
			}
			coldSeeds[op.job.seed] = true
		}
	}
	for c, want := range []float64{hitShare, coldShare, 1 - hitShare - coldShare} {
		if got := float64(count[c]) / n; math.Abs(got-want) > 0.015 {
			t.Errorf("%s share %.3f, want %.2f", opClass(c), got, want)
		}
	}
}

func TestSeedsScheduleIsBalanced(t *testing.T) {
	block := len(seedsSeries) * len(seedsPairs())
	if seedsPassBatches%block != 0 {
		t.Errorf("seedsPassBatches %d is not a whole number of %d-batch blocks", seedsPassBatches, block)
	}
	combos := map[string]int{}
	for i := 0; i < 5*block; i++ {
		b := seedsBatchAt(11, i)
		if b != seedsBatchAt(11, i) {
			t.Fatalf("batch %d differs between two schedules at one seed", i)
		}
		validJob(t, "batch", b)
		combos[b.backend+"/"+b.preset+"/"+b.pair.Name()]++
		jobs, err := replicaJobs(b)
		if err != nil || len(jobs) != seedsPerBatch || jobs[0].seed != b.seed {
			t.Fatalf("batch %d expands to %d jobs (%v); seed 0 must be the base seed", i, len(jobs), err)
		}
	}
	if len(combos) != block {
		t.Errorf("batches cover %d series x pair combinations, want %d", len(combos), block)
	}
	for c, n := range combos {
		if n != 5 {
			t.Errorf("%s runs %d times in 5 blocks", c, n)
		}
	}
}

func TestShuffledIsASeededPermutation(t *testing.T) {
	a, b := shuffled(5, 0, 112), shuffled(5, 0, 112)
	seen := make([]bool, 112)
	for i, v := range a {
		if v != b[i] {
			t.Fatal("one seed and pass gave two orders")
		}
		if seen[v] {
			t.Fatalf("index %d appears twice", v)
		}
		seen[v] = true
	}
	same := true
	for i, v := range shuffled(5, 1, 112) {
		same = same && v == a[i]
	}
	if same {
		t.Error("passes 0 and 1 share one order")
	}
}
