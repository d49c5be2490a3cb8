package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// worker drains the queue until it is closed; each claimed job runs to
// a terminal state before the next is picked up. Which job comes next
// is the fair-share scheduler's call, not arrival order.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.reg.dequeue()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob drives one claimed job from claimed to terminal, keeping the
// metrics and result cache consistent with the observed outcome. It is
// the only place pearld touches the simulator. A replica carrier's crew
// shares one experiments.Run over the live members' seeds; a plain job
// is settled as a crew of one, itself. Members cancelled before the run
// starts are skipped; a member cancelled mid-run still gets its result
// cached — the simulation ran — but finishes cancelled.
func (s *Server) runJob(job *Job) {
	if !job.markRunning() {
		// Cancelled while queued; already counted and terminal.
		return
	}
	s.metrics.jobStarted()
	defer s.metrics.workerIdle()

	carrier := len(job.crew) > 0
	live := []*Job{job}
	if carrier {
		live = make([]*Job, 0, len(job.crew))
		for _, m := range job.crew {
			if m.markRunning() {
				live = append(live, m)
			}
		}
		if len(live) == 0 {
			job.finish(StateCancelled, nil, errors.New("every replica member settled before the run started"))
			return
		}
	}
	seeds := make([]uint64, len(live))
	for i, m := range live {
		seeds[i] = m.spec.seed
	}

	spec := job.spec
	opts := spec.options()
	opts.OnWindow = func(ws experiments.WindowStats) { s.emitWindow(live[0], ws) }
	if !carrier {
		// The canary learns from plain jobs only.
		opts.OnWindowSample = spec.canarySample
	}
	ctx := job.ctx
	// A carrier simulates len(live) seeds' worth of cycles, so its
	// wall-clock budget scales with the crew.
	timeout := spec.timeout * time.Duration(len(live))
	if spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	results, err := experiments.Run(ctx, spec.point(), opts, seeds)
	elapsed := time.Since(start)

	var state JobState
	switch {
	case err == nil:
		perSeed := elapsed / time.Duration(len(live))
		cycles := uint64(spec.warmup) + uint64(spec.measure)
		for i, m := range live {
			payload := newJobResult(results[i])
			// Publish to the cache layers BEFORE finishing: finish fires the
			// flight-table removal, and any duplicate admitted after that
			// must find the result in the cache (exactly-once invariant).
			s.store(m.key, payload)
			if m.ctx.Err() != nil {
				if m.finish(StateCancelled, nil, errors.New("cancelled while running")) {
					s.metrics.jobCancelled(m.tenant)
				}
				continue
			}
			if m.finish(StateDone, payload, nil) {
				s.metrics.jobCompleted(m.tenant, perSeed, cycles)
				s.metrics.controllerRun(m.tenant, spec.ctrlName, payload.StateResidency, spec.measure)
			}
		}
		if carrier {
			job.finish(StateDone, nil, nil)
			s.metrics.replicaGroupDone(len(live))
		}
		return
	case errors.Is(err, context.Canceled):
		state, err = StateCancelled, errors.New("cancelled while running")
	case errors.Is(err, context.DeadlineExceeded):
		state, err = StateFailed, fmt.Errorf("timed out after %v", timeout)
	default:
		state = StateFailed
	}
	for _, m := range live {
		if !m.finish(state, nil, err) {
			continue
		}
		if state == StateCancelled {
			s.metrics.jobCancelled(m.tenant)
		} else {
			s.metrics.jobFailed(m.tenant)
		}
	}
	if carrier {
		job.finish(state, nil, err)
	}
}
