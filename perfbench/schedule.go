package main

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Every input the benchmark submits is a pure function of the workload
// seed and the operation's index, so op i can be generated without the
// ones before it, two runs at one seed submit the same operations, and
// a traced run can replay exactly the prefix an untimed run digested.

// draw hashes the workload seed with a stream tag and indices into one
// uniformly distributed 64-bit value.
func draw(seed uint64, tag string, idx ...int) uint64 {
	h := sim.Mix64(seed ^ 0x7065726662656e63)
	for _, b := range []byte(tag) {
		h = sim.Mix64(h ^ uint64(b))
	}
	for _, i := range idx {
		h = sim.Mix64(h ^ uint64(i))
	}
	return h
}

// unit maps a drawn value to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// pick draws an index below n.
func pick(seed uint64, tag string, n int, idx ...int) int {
	return int(draw(seed, tag, idx...) % uint64(n))
}

// freshSeed draws a simulation seed; 0 is avoided because pearld reads a
// zero seed as "use the paper seed".
func freshSeed(seed uint64, tag string, idx ...int) uint64 {
	return draw(seed, tag, idx...) | 1
}

// simJob is one simulation as the benchmark requests it: from pearld as
// a job or batch, or from the kernel as a bare stack.
type simJob struct {
	backend string // "pearl" or "cmesh"
	preset  string // pearl presets only
	pair    traffic.Pair
	seed    uint64
	warmup  int64
	measure int64
}

// cycles is the simulated network cycles one run of the job executes.
func (j simJob) cycles() int64 { return j.warmup + j.measure }

// config resolves the job's network configuration.
func (j simJob) config() (config.Config, error) {
	if j.backend == "cmesh" {
		return config.Default(), nil
	}
	return config.ByName(j.preset)
}

// label is the configuration label pearld reports for the job, which
// also keys its replica seed derivation.
func (j simJob) label() (string, error) {
	if j.backend == "cmesh" {
		return experiments.CMESHName(1), nil
	}
	cfg, err := j.config()
	if err != nil {
		return "", err
	}
	return cfg.Name(), nil
}

// key names the job in digests and error messages.
func (j simJob) key() string {
	name := j.preset
	if j.backend == "cmesh" {
		name = "cmesh"
	}
	return fmt.Sprintf("%s/%s/%d/%d+%d", name, j.pair.Name(), j.seed, j.warmup, j.measure)
}

// --- pearld-mix ---

// opClass is a pearld-mix request class.
type opClass int

const (
	classHit opClass = iota
	classCold
	classScrape
)

func (c opClass) String() string {
	return [...]string{"hit", "cold", "scrape"}[c]
}

// Class shares of the pearld-mix schedule; scrapes take the rest.
const (
	hitShare  = 0.75
	coldShare = 0.20
)

// mixWorkingSetSize is how many distinct jobs the hits repeat: small
// against pearld's 1024-entry LRU, so every repeat is a memory hit.
const mixWorkingSetSize = 8

// Mix jobs are short: cold jobs must be frequent enough for a p90.
const (
	mixWarmup  = 1000
	mixMeasure = 4000
)

// mixPresets are the model-free photonic presets cold and working-set
// jobs draw from; the rest of the jobs use the cmesh backend.
var mixPresets = []string{"pearl-dyn", "pearl-fcfs", "dyn-rw500", "proteus-rw500", "d3noc-rw500"}

// mixJob draws one job on a Table IV test pair: a quarter on CMESH, the
// rest spread over the photonic presets.
func mixJob(seed uint64, tag string, i int) simJob {
	j := simJob{
		backend: "pearl",
		pair:    drawPair(seed, tag, i),
		seed:    freshSeed(seed, tag+".seed", i),
		warmup:  mixWarmup,
		measure: mixMeasure,
	}
	if unit(draw(seed, tag+".backend", i)) < 0.25 {
		j.backend = "cmesh"
	} else {
		j.preset = mixPresets[pick(seed, tag+".preset", len(mixPresets), i)]
	}
	return j
}

func drawPair(seed uint64, tag string, i int) traffic.Pair {
	pairs := traffic.TestPairs()
	return pairs[pick(seed, tag+".pair", len(pairs), i)]
}

// mixWorkingSet is the jobs the hits repeat, warmed during set-up: two
// on CMESH and six over the photonic presets, on seeded pairs, so that
// set-up costs the same work whatever the seed.
func mixWorkingSet(seed uint64) []simJob {
	ws := make([]simJob, mixWorkingSetSize)
	for k := range ws {
		ws[k] = simJob{
			backend: "pearl",
			preset:  mixPresets[k%len(mixPresets)],
			pair:    drawPair(seed, "ws", k),
			seed:    freshSeed(seed, "ws.seed", k),
			warmup:  mixWarmup,
			measure: mixMeasure,
		}
		if k%4 == 3 {
			ws[k].backend, ws[k].preset = "cmesh", ""
		}
	}
	return ws
}

// mixOp is one pearld-mix request.
type mixOp struct {
	class opClass
	job   simJob // hit and cold requests
	hit   int    // working-set index of a hit
}

// mixOpAt is the i-th request of the pearld-mix schedule.
func mixOpAt(seed uint64, i int, ws []simJob) mixOp {
	u := unit(draw(seed, "class", i))
	switch {
	case u < hitShare:
		k := pick(seed, "hit", len(ws), i)
		return mixOp{class: classHit, job: ws[k], hit: k}
	case u < hitShare+coldShare:
		return mixOp{class: classCold, job: mixJob(seed, "cold", i)}
	default:
		return mixOp{class: classScrape}
	}
}

// --- pearld-seeds ---

// seedsPerBatch is the seed fan of every pearld-seeds batch.
const seedsPerBatch = 8

// Seeds batches simulate seedsPerBatch replicas of this many cycles.
const (
	seedsWarmup  = 1000
	seedsMeasure = 1500
)

// seedsSeries are the replica-safe series pearld-seeds batches draw
// from: the four model-free photonic presets that lockstep replication
// accepts, and the CMESH baseline, which it accepts too.
var seedsSeries = []string{"pearl-dyn", "dyn-rw500", "proteus-rw500", "d3noc-rw500", "cmesh"}

// seedsPairs are the test pairs pearld-seeds batches run on: the
// diagonal of the 4x4 Table IV grid, so each test CPU and GPU benchmark
// appears once.
func seedsPairs() []traffic.Pair {
	all := traffic.TestPairs()
	return []traffic.Pair{all[0], all[5], all[10], all[15]}
}

// seedsBatchAt is the i-th batch of the pearld-seeds schedule: one
// series on one pair with a fresh base seed. Each block of
// len(seedsSeries) x len(seedsPairs) batches runs every combination once,
// in a seeded order, so any run of whole blocks does the same work.
func seedsBatchAt(seed uint64, i int) simJob {
	pairs := seedsPairs()
	block := len(seedsSeries) * len(pairs)
	combo := shuffled(seed, i/block, block)[i%block]
	j := simJob{
		backend: "pearl",
		pair:    pairs[combo%len(pairs)],
		seed:    freshSeed(seed, "seeds.seed", i),
		warmup:  seedsWarmup,
		measure: seedsMeasure,
	}
	if s := seedsSeries[combo/len(pairs)]; s == "cmesh" {
		j.backend = "cmesh"
	} else {
		j.preset = s
	}
	return j
}

// replicaJobs expands a batch into its per-seed jobs, in pearld's point
// order, with pearld's replica seed derivation.
func replicaJobs(batch simJob) ([]simJob, error) {
	label, err := batch.label()
	if err != nil {
		return nil, err
	}
	out := make([]simJob, seedsPerBatch)
	for i := range out {
		out[i] = batch
		out[i].seed = experiments.ReplicaSeed(batch.seed, label, batch.pair.Name(), i)
	}
	return out, nil
}

// shuffled is the seeded permutation of [0, n) for one pass over a set
// of operations.
func shuffled(seed uint64, pass, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := pick(seed, "order", i+1, pass, i)
		order[i], order[k] = order[k], order[i]
	}
	return order
}
