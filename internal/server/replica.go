package server

import (
	"fmt"
	"sync/atomic"

	"repro/internal/experiments"
)

// Server-side replicated execution: a batch point with seeds: N expands
// into N member jobs — one per derived seed, each with its own
// content-addressed cache key — that the feeder coalesces back into ONE
// lockstep simulation per group. The carrier job that rides the queue
// is invisible to the API: members keep their individual lifecycles
// (cache hits, singleflight coalescing, cancellation, per-seed cache
// entries), the carrier only owns the worker slot and the shared run.

// maxSeedsPerPoint bounds one batch point's seed fan-out.
const maxSeedsPerPoint = 32

// replicaGroup ties the member jobs of one seeds:N point together. key
// is the base spec's content hash — the shard router hashes it so every
// member of a group lands on the same peer.
type replicaGroup struct {
	base jobSpec
	key  string
}

func newReplicaGroup(base jobSpec) *replicaGroup {
	return &replicaGroup{base: base, key: base.cacheKey()}
}

// shardKey is the hash the shard router partitions the job by: the
// replica group's key for grouped members (keeping a group on one
// peer), the job's own cache key otherwise.
func (j *Job) shardKey() string {
	if j.group != nil {
		return j.group.key
	}
	return j.key
}

// replicaSeed derives the base seed of the i-th member of a seeds:N
// point (see experiments.ReplicaSeed for the schema and its cache-key
// consequence: a derived seed is a first-class seed, so a member's
// cache entry is exactly the one a standalone run of that seed would
// produce).
func (s jobSpec) replicaSeed(i int) uint64 {
	return experiments.ReplicaSeed(s.seed, s.point().Name(), s.pair.Name(), i)
}

// coalesceReplicaGroups rewrites a deferred job list so that members of
// the same replica group ride the queue as ONE carrier job. Members
// that already settled elsewhere (cache hits, singleflight followers)
// never reach this list, so the crew is exactly the members that still
// need simulating; a group reduced to one member stays a plain job.
// Order is preserved by the first member's position.
func (s *Server) coalesceReplicaGroups(deferred []*Job) []*Job {
	carriers := make(map[*replicaGroup]*Job)
	out := make([]*Job, 0, len(deferred))
	for _, job := range deferred {
		if job.group == nil {
			out = append(out, job)
			continue
		}
		if c, ok := carriers[job.group]; ok {
			c.crew = append(c.crew, job)
			continue
		}
		c := newJob(fmt.Sprintf("replica-%06d", s.nextID.Add(1)), job.group.base, s.rootCtx)
		c.setTenant(job.tenant, job.token, job.weight)
		c.crew = []*Job{job}
		carriers[job.group] = c
		out = append(out, c)
	}
	// Only carriers built above have a crew; deferred member jobs never
	// do.
	for i, job := range out {
		switch {
		case len(job.crew) == 0:
		case len(job.crew) == 1:
			// Alone after cache/coalesce attrition: run it as the plain
			// member job it is.
			out[i] = job.crew[0]
		default:
			s.armCarrier(job)
		}
	}
	return out
}

// armCarrier wires the carrier's lifecycle to its crew: when every
// member reaches a terminal state on its own (batch cancellation,
// drain), a still-queued carrier cancels itself rather than waste a
// worker slot; and a carrier cancelled before running (queue closed
// under it) releases any members still pending.
func (s *Server) armCarrier(carrier *Job) {
	remaining := int64(len(carrier.crew))
	for _, m := range carrier.crew {
		m.subscribe(func(*Job) {
			if atomic.AddInt64(&remaining, -1) == 0 {
				carrier.Cancel()
			}
		})
	}
	carrier.subscribe(func(c *Job) {
		if state, _, _ := c.outcome(); state != StateCancelled {
			return
		}
		for _, m := range c.crew {
			if m.cancelIfPending() {
				s.metrics.jobCancelled(m.tenant)
			}
		}
	})
}
