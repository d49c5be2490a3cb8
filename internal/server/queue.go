package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/tenant"
)

// JobState is a job's lifecycle stage.
type JobState string

// Job lifecycle: pending -> running -> done | failed | cancelled.
// Cache hits and cancelled-while-queued jobs skip running.
const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one queued simulation with its lifecycle bookkeeping. The
// mutable fields are guarded by mu; ctx/cancel govern the simulation's
// cooperative cancellation.
type Job struct {
	ID   string
	spec jobSpec
	key  string

	// Tenant identity, fixed at submission: the owning tenant's name
	// (scheduling lane and metrics attribution), the bearer token it
	// presented (forwarded on shard dispatch), and its fair-share
	// weight captured at admission time.
	tenant string
	token  string
	weight int

	// events is the job's live feed; sinks are additional rings (the
	// owning batch's feed) its window frames fan out to. Both are fixed
	// before the job is shared with any other goroutine, so they need
	// no lock; the rings themselves are concurrency-safe.
	events *eventRing
	sinks  []*eventRing

	// group links a seeds:N batch member to its replica group (nil for
	// ordinary jobs); crew, on a replica-carrier job, lists the member
	// jobs one lockstep run settles. Both are fixed before the job is
	// shared with any other goroutine, so they need no lock.
	group *replicaGroup
	crew  []*Job

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	err       error
	result    *JobResult
	cached    bool
	coalesced bool
	remote    bool
	follower  bool
	subs      []func(*Job)
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec jobSpec, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID:        id,
		spec:      spec,
		key:       spec.cacheKey(),
		tenant:    tenant.AnonymousName,
		weight:    1,
		ctx:       ctx,
		cancel:    cancel,
		state:     StatePending,
		submitted: time.Now(),
	}
}

// setTenant stamps the owning tenant onto a freshly built job. Called
// before the job is shared with any other goroutine, so the fields
// need no lock afterwards.
func (j *Job) setTenant(name, token string, weight int) {
	j.tenant = name
	j.token = token
	j.weight = weight
}

// subscribe registers fn to run exactly once when the job reaches a
// terminal state (on whatever goroutine drives the transition, with no
// job lock held). Subscribing to an already-terminal job invokes fn
// immediately. This is the primitive both the singleflight layer
// (followers awaiting a leader) and batch cancel-on-first-error build
// on.
func (j *Job) subscribe(fn func(*Job)) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		fn(j)
		return
	}
	j.subs = append(j.subs, fn)
	j.mu.Unlock()
}

// takeSubsLocked detaches the pending subscribers; callers hold mu and
// invoke them after unlocking.
func (j *Job) takeSubsLocked() []func(*Job) {
	subs := j.subs
	j.subs = nil
	return subs
}

func notify(j *Job, subs []func(*Job)) {
	for _, fn := range subs {
		fn(j)
	}
}

// markFollower tags the job as a singleflight follower: it is never
// enqueued and resolves when its leader does, so the drain path leaves
// it alone (cancelIfPending skips followers).
func (j *Job) markFollower() {
	j.mu.Lock()
	j.follower = true
	j.coalesced = true
	j.mu.Unlock()
}

// outcome snapshots the terminal state, payload and error.
func (j *Job) outcome() (JobState, *JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

// Cancel requests cancellation. Queued jobs flip to cancelled
// immediately (wasPending true); running jobs stop at the next
// simulation chunk boundary and are marked cancelled by their worker.
// signalled is false when the job had already reached a terminal state.
func (j *Job) Cancel() (signalled, wasPending bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false, false
	}
	j.cancel()
	if j.state == StatePending {
		j.state = StateCancelled
		j.finished = time.Now()
		subs := j.takeSubsLocked()
		j.mu.Unlock()
		notify(j, subs)
		return true, true
	}
	j.mu.Unlock()
	return true, false
}

// cancelIfPending flips a still-queued job to cancelled without
// touching running ones — drain wants in-flight work to finish.
// Singleflight followers are skipped: they resolve when their leader
// does (the leader is either running, and will finish during drain, or
// pending, and will be cancelled here itself).
func (j *Job) cancelIfPending() bool {
	j.mu.Lock()
	if j.state != StatePending || j.follower {
		j.mu.Unlock()
		return false
	}
	j.state = StateCancelled
	j.finished = time.Now()
	j.cancel()
	subs := j.takeSubsLocked()
	j.mu.Unlock()
	notify(j, subs)
	return true
}

// markRunning transitions pending -> running; returns false when the
// job was cancelled while queued (the worker must skip it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state, releasing the job's context. It
// reports whether this call settled the job — false when it was already
// terminal (a replica member cancelled mid-run, say), so callers can
// attribute outcome metrics exactly once.
func (j *Job) finish(state JobState, result *JobResult, err error) bool {
	j.mu.Lock()
	var subs []func(*Job)
	settled := false
	if !j.state.Terminal() {
		settled = true
		j.state = state
		j.result = result
		j.err = err
		j.finished = time.Now()
		subs = j.takeSubsLocked()
	}
	j.mu.Unlock()
	j.cancel()
	notify(j, subs)
	return settled
}

// finishCached marks a job resolved from the result cache (or a
// singleflight leader) without executing. No-op once terminal — a
// follower may have been cancelled before its leader settled it.
func (j *Job) finishCached(result *JobResult) {
	j.mu.Lock()
	var subs []func(*Job)
	if !j.state.Terminal() {
		j.state = StateDone
		j.result = result
		j.cached = true
		j.started = j.submitted
		j.finished = time.Now()
		subs = j.takeSubsLocked()
	}
	j.mu.Unlock()
	j.cancel()
	notify(j, subs)
}

// finishRemote marks a job settled by a shard peer's execution: done,
// cached (its entry was imported into the local cache first) and
// remote. Reports whether this call settled the job — false when it was
// already terminal (e.g. cancelled while the remote attempt was in
// flight).
func (j *Job) finishRemote(result *JobResult) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = StateDone
	j.result = result
	j.cached = true
	j.remote = true
	j.started = j.submitted
	j.finished = time.Now()
	subs := j.takeSubsLocked()
	j.mu.Unlock()
	j.cancel()
	notify(j, subs)
	return true
}

// Result returns the payload and whether the job is done.
func (j *Job) Result() (*JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       string(j.state),
		Tenant:      j.tenant,
		Backend:     j.spec.backend,
		Config:      j.spec.point().Name(),
		Pair:        j.spec.pair.Name(),
		Model:       j.spec.cfg.ModelRef,
		CacheKey:    j.key,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Remote:      j.remote,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.ElapsedMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return st
}

// registry is the id -> job table plus the bounded intake queue.
// Dispatch order is weighted fair-share across tenants (see
// fairQueue); within a tenant it is FIFO. The queue's capacity is the
// global bound shared by all tenants.
type registry struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	queue *fairQueue
}

func newRegistry(depth int) *registry {
	return &registry{
		jobs:  make(map[string]*Job),
		queue: newFairQueue(depth),
	}
}

// add registers the job under its ID.
func (r *registry) add(j *Job) {
	r.mu.Lock()
	r.jobs[j.ID] = j
	r.mu.Unlock()
}

// get looks a job up by ID.
func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// enqueue offers the job to the bounded queue without blocking;
// false means the queue is full or draining (callers answer 503).
func (r *registry) enqueue(j *Job) bool {
	queued, _ := r.tryEnqueue(j)
	return queued
}

// tryEnqueue is enqueue with the failure cause split out: closed means
// the daemon is draining and the job will never be accepted, while
// !queued && !closed is transient queue-full pressure a batch feeder
// may retry.
func (r *registry) tryEnqueue(j *Job) (queued, closed bool) {
	return r.queue.enqueue(j)
}

// dequeue blocks for the fair-share scheduler's next job; ok false
// means the queue is closed and drained, so the worker should exit.
func (r *registry) dequeue() (*Job, bool) {
	return r.queue.dequeue()
}

// close stops intake; subsequent enqueues fail and workers exit once
// the queue drains. Idempotent.
func (r *registry) close() {
	r.queue.close()
}

// cancelPending cancels every job still waiting in the queue and
// returns the jobs that were flipped to cancelled (so the caller can
// attribute the cancellations per tenant).
func (r *registry) cancelPending() []*Job {
	r.mu.Lock()
	pending := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		pending = append(pending, j)
	}
	r.mu.Unlock()
	var flipped []*Job
	for _, j := range pending {
		if j.cancelIfPending() {
			flipped = append(flipped, j)
		}
	}
	return flipped
}

// depth reports queued-but-unclaimed jobs.
func (r *registry) depth() int { return r.queue.depth() }
