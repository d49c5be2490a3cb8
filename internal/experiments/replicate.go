package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Replicated lockstep execution: N replicas of one (config, pair) —
// identical topology and policy, different seeds — stepped through a
// shared per-cycle loop. Each replica is a complete independent stack
// built by buildReplica, exactly as a one-seed Run builds its only one,
// so every replica's Result is bit-identical to a standalone run of its
// seed; the lockstep engine only amortises scheduling overhead and
// spreads the replicas across cores.
//
// Seed derivation contract: replica 0 runs the caller's base seed
// unchanged, so it is byte-identical to a one-seed run (and its
// cache entry has the same content address). Replicas i > 0 run
// ReplicaSeed(base, configName, pairName, i). Unlike the single-run
// workload seed (runSeed, which deliberately drops the config name for
// paired comparison), the replica fan folds the config name in: extra
// seeds exist to estimate variance, not to pair configurations, and
// giving each configuration its own fan keeps their error estimates
// independent. The consequence for caching is that a derived seed is a
// first-class seed — the cache key of replica i's result is exactly
// the key a standalone run with that seed would produce, so replicated
// and standalone runs converge on the same cache entries.

// ReplicaSeed derives the base seed for replica index i of a replicated
// run. Index 0 returns base unchanged (byte-identity with single runs);
// higher indices FNV-fold the configuration name, pair name and index,
// then pass the result through sim.Mix64 so consecutive indices land on
// uncorrelated seeds. The result is never 0 (some callers reserve seed
// 0 as "use the default").
func ReplicaSeed(base uint64, configName, pairName string, replica int) uint64 {
	if replica == 0 {
		return base
	}
	h := base
	for _, b := range []byte(configName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64('\n') // separator: ("ab","c") != ("a","bc")
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64(replica) //nolint:gosec // index is small and non-negative
	s := sim.Mix64(h)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// ReplicaSeeds returns the n-seed fan for a replicated run:
// [base, ReplicaSeed(base, ..., 1), ...].
func ReplicaSeeds(base uint64, configName, pairName string, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = ReplicaSeed(base, configName, pairName, i)
	}
	return seeds
}

// CanReplicate reports whether p may run its seeds in one lockstep
// engine: the electrical CMESH baseline always can, and a photonic point
// can when its controller declares itself replica-safe (every Policy call
// mints an independent instance, so replica N matches a standalone run
// of its seed). A nil Controller means the configuration's registered
// controller; a model-needing configuration then fails with the
// construction error.
func CanReplicate(p Point) error {
	if p.Backend == BackendCMESH {
		return nil
	}
	ctrl := p.Controller
	if ctrl == nil {
		c, err := controller.New(p.Config, nil)
		if err != nil {
			return err
		}
		ctrl = c
	}
	if !ctrl.Capabilities().ReplicaSafe {
		return fmt.Errorf("experiments: controller %s is not replica-safe; %s cannot run replicated", ctrl.Name(), p.Config.Name())
	}
	return nil
}

// runCtxChunk is how many cycles run between context checks: small
// enough that cancellation lands well inside a client poll interval,
// large enough to stay off the hot path.
const runCtxChunk = 1024

// lockstep steps N independent replicas through a shared cycle loop on
// a small pool of persistent worker goroutines. Replica i is pinned to
// worker i mod workers for the lifetime of the run, so each replica's
// whole history executes on one goroutine; workers only synchronise at
// chunk boundaries. Steady-state stepping allocates nothing.
//
// Because replicas never exchange state, the worker count (and hence
// GOMAXPROCS) cannot influence any replica's results — only how the
// chunks interleave in wall-clock time. A single run is a lockstep of
// one replica.
type lockstep struct {
	replicas []replica
	workers  int
	cmds     []chan int64
	done     chan struct{}
	wg       sync.WaitGroup
	closed   bool
}

// newLockstep builds one replica of p per seed — seeds[i] becomes
// replica i's Options.Seed, and only replica 0 keeps the observation
// hooks — and starts the worker pool.
func newLockstep(p Point, opts Options, seeds []uint64) (*lockstep, error) {
	if p.Backend == BackendPEARL && p.Controller == nil {
		ctrl, err := controller.New(p.Config, nil)
		if err != nil {
			return nil, err
		}
		p.Controller = ctrl
	}
	n := len(seeds)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	// One exp(-rate) memo per worker lane: every replica a lane steps
	// runs the same pair, so the first replica warms the rate ladder
	// and the rest hit. Same-goroutine access only, so no locking.
	tables := make([]*traffic.ExpTable, workers)
	for i := range tables {
		tables[i] = traffic.NewExpTable()
	}
	l := &lockstep{
		replicas: make([]replica, n),
		workers:  workers,
		cmds:     make([]chan int64, workers),
		done:     make(chan struct{}, workers),
	}
	for i, seed := range seeds {
		o := opts
		o.Seed = seed
		if i != 0 {
			o.OnWindow, o.OnWindowSample = nil, nil
		}
		r, err := buildReplica(p, o, tables[i%workers])
		if err != nil {
			return nil, err
		}
		l.replicas[i] = r
	}
	for w := 0; w < workers; w++ {
		l.cmds[w] = make(chan int64, 1)
		l.wg.Add(1)
		go l.worker(w)
	}
	return l, nil
}

func (l *lockstep) worker(w int) {
	defer l.wg.Done()
	for chunk := range l.cmds[w] {
		for i := w; i < len(l.replicas); i += l.workers {
			l.replicas[i].engine.Run(chunk)
		}
		l.done <- struct{}{}
	}
}

// step advances every replica by the given number of cycles and returns
// once all of them have caught up. The channel hand-off at each end of
// the chunk is the only synchronisation: the coordinator's state reads
// between steps are ordered after every worker's writes.
func (l *lockstep) step(cycles int64) {
	for w := 0; w < l.workers; w++ {
		l.cmds[w] <- cycles
	}
	for w := 0; w < l.workers; w++ {
		<-l.done
	}
}

// close stops the worker pool. The lockstep must not be used after
// close; close is idempotent.
func (l *lockstep) close() {
	if l.closed {
		return
	}
	l.closed = true
	for _, c := range l.cmds {
		close(c)
	}
	l.wg.Wait()
}

// runCtx drives all replicas for n cycles in bounded chunks, checking
// ctx between chunks so a cancelled or timed-out run stops within
// ~runCtxChunk cycles instead of completing the whole window.
func (l *lockstep) runCtx(ctx context.Context, n int64) error {
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := int64(runCtxChunk)
		if step > remaining {
			step = remaining
		}
		l.step(step)
		remaining -= step
	}
	// Every replica completed all n cycles: the results are fully
	// computed, so a cancellation that lands during the final chunk must
	// not discard them.
	return nil
}

// runLockstep is the warmup → measure → finalize sequence of one Run
// over seeds, all stepped in one lockstep engine.
func runLockstep(ctx context.Context, p Point, opts Options, seeds []uint64) ([]Result, error) {
	l, err := newLockstep(p, opts, seeds)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if err := l.runCtx(ctx, opts.WarmupCycles); err != nil {
		return nil, err
	}
	for i := range l.replicas {
		l.replicas[i].startMeasure()
	}
	if err := l.runCtx(ctx, opts.MeasureCycles); err != nil {
		return nil, err
	}
	results := make([]Result, len(l.replicas))
	for i := range l.replicas {
		l.replicas[i].stopMeasure(opts.MeasureCycles)
		results[i] = l.replicas[i].result()
	}
	return results, nil
}

// RunPEARLReplicatedSeeds is Run over a photonic point.
func RunPEARLReplicatedSeeds(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, seeds []uint64, ctrl controller.Controller) ([]Result, error) {
	return Run(ctx, pearlAt(cfg, pair, ctrl), opts, seeds)
}
