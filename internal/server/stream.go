package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// Live streaming: GET /v1/jobs/{id}/events and GET
// /v1/batches/{id}/events serve each ring as Server-Sent Events. A
// stream replays whatever the bounded ring still holds (from
// Last-Event-ID when the client resumes), then follows live appends
// until the feed's terminal "end" frame, the client disconnects, or
// the daemon shuts down. Heartbeat comments keep idle streams alive
// through proxies; per-tenant concurrent-stream caps keep a chatty
// dashboard from pinning every handler goroutine.

// streamRetryAfter hints how long a stream-capped client should wait:
// slots free as other streams close, so a short pause is right.
const streamRetryAfter = time.Second

// handleJobEvents is GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.serveStream(w, r, job.events)
}

// handleBatchEvents is GET /v1/batches/{id}/events.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such batch")
		return
	}
	s.serveStream(w, r, b.events)
}

// serveStream runs one SSE connection against a ring. The handler
// goroutine is the only per-stream resource: readers poll the ring and
// park on its broadcast channel, so returning — on end frame, client
// disconnect, or shutdown — releases everything (tenant stream slot,
// metrics gauge) with nothing left subscribed to the ring.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, ring *eventRing) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	tn := s.tenantOf(r)
	if !tn.AcquireStream(s.opts.MaxStreamsPerTenant) {
		s.metrics.tenantThrottled(tn.Name())
		httpRetryError(w, http.StatusTooManyRequests, streamRetryAfter,
			"tenant %s has too many open event streams (%d open)", tn.Name(), tn.Streams())
		return
	}
	defer tn.ReleaseStream()
	s.metrics.streamOpened(tn.Name())
	defer s.metrics.streamClosed(tn.Name())

	last := parseLastEventID(r)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	heartbeat := time.NewTicker(s.opts.StreamHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		evs, closed, wait := ring.since(last)
		for _, ev := range evs {
			if err := writeSSEFrame(w, ev); err != nil {
				return
			}
			last = ev.seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-ctx.Done():
			// Client went away (or the request was cancelled): unpark and
			// release the stream slot promptly.
			return
		case <-wait:
		case <-heartbeat.C:
			if err := writeSSEComment(w, "hb"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// parseLastEventID reads the resume position: the standard
// Last-Event-ID header EventSource sends on reconnect, with a
// last_event_id query fallback for curl-style clients. Absent or
// malformed means "from the oldest buffered frame".
func parseLastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// --- emission plumbing ---

// emitWindow fans one live window sample out to the job's feed and any
// batch feeds the job belongs to. Called from the simulation goroutine:
// ring appends never block, so the kernel never waits on a consumer.
func (s *Server) emitWindow(job *Job, ws experiments.WindowStats) {
	s.emitWindowEvent(job, WindowEvent{
		JobID:       job.ID,
		Label:       job.spec.point().Name(),
		Pair:        job.spec.pair.Name(),
		WindowStats: ws,
	})
}

// emitWindowEvent appends a prepared window frame everywhere it
// belongs; each ring stamps its own drop counter into its own copy.
func (s *Server) emitWindowEvent(job *Job, ev WindowEvent) {
	body := ev
	if ok, dropped := job.events.append(eventKindWindow, &body); ok {
		s.metrics.eventEmitted(job.tenant, dropped)
	}
	for _, sink := range job.sinks {
		cp := ev
		if ok, dropped := sink.append(eventKindWindow, &cp); ok {
			s.metrics.eventEmitted(job.tenant, dropped)
		}
	}
}

// closeFeedOnTerminal arranges the job feed's synthetic terminal
// frame: whatever path the job takes to a terminal state — simulated,
// cache hit, coalesced, remote, failed, cancelled, never scheduled —
// its feed ends with one "end" frame carrying the final status.
func (s *Server) closeFeedOnTerminal(job *Job) {
	job.subscribe(func(j *Job) {
		ev := JobEndEvent{Status: j.Status()}
		if j.events.close(eventKindEnd, &ev) {
			s.metrics.eventEmitted(j.tenant, false)
		}
	})
}

// noteProgress is subscribed to every batch member: each terminal
// point appends a progress frame (batch counters + incremental series
// means), and the last one seals the feed with the end frame. Only
// runs once the batch is sealed-for-close checks: during submission,
// inline-fired subscribers (fully cached points) emit progress but
// leave closing to handleSubmitBatch's final maybeCloseFeed.
func (b *Batch) noteProgress(s *Server, j *Job) {
	st := b.status(false)
	ev := BatchProgressEvent{
		BatchID:   b.ID,
		Point:     j.Status(),
		Total:     st.Total,
		Done:      st.Done,
		Failed:    st.Failed,
		Cancelled: st.Cancelled,
		Cached:    st.Cached,
		Progress:  st.Progress,
		Series:    seriesRows(b.snapshotJobs()),
	}
	if ok, dropped := b.events.append(eventKindProgress, &ev); ok {
		s.metrics.eventEmitted(j.tenant, dropped)
	}
	b.maybeCloseFeed(s)
}

// maybeCloseFeed seals the batch feed once every point is terminal.
// Idempotent (ring close is); a no-op until the submit loop has sealed
// the member list, so a cached prefix can never close the feed early.
func (b *Batch) maybeCloseFeed(s *Server) {
	if !b.sealed.Load() {
		return
	}
	st := b.status(false)
	if st.Done+st.Failed+st.Cancelled != st.Total {
		return
	}
	ev := BatchEndEvent{Status: st, Series: seriesRows(b.snapshotJobs())}
	if b.events.close(eventKindEnd, &ev) {
		s.metrics.eventEmitted(b.tenant, false)
	}
}

// --- shard peer feed proxy ---

// proxyPeerFeed mirrors a peer's live job feed into the local job's
// rings while runRemote drives the point: window frames decoded from
// the peer's SSE stream re-emit locally under the local job identity,
// so a coordinator batch feed carries remote points' windows too. The
// same bounded retry/backoff discipline as the rest of shard.go
// applies, resuming from the last received event id; this is pure
// observability — any terminal failure here costs frames, never the
// point (runRemote's result import is independent).
func (s *Server) proxyPeerFeed(ctx context.Context, job *Job, peer *peerClient, remoteID, tok string) {
	var last uint64
	backoff := s.shard.retryBase
	for attempt := 0; attempt < s.shard.retries; attempt++ {
		done, err := s.streamPeerFeed(ctx, job, peer, remoteID, tok, &last)
		if done || ctx.Err() != nil {
			return
		}
		_ = err
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// streamPeerFeed runs one streaming attempt; done reports a clean end
// frame (the remote feed is complete).
func (s *Server) streamPeerFeed(ctx context.Context, job *Job, peer *peerClient, remoteID, tok string, last *uint64) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer.base+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	authorize(req, tok)
	resp, err := s.shard.streamClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, errPeerUnavailable
	}
	err = DecodeSSE(resp.Body, func(fr SSEFrame) error {
		if n, perr := strconv.ParseUint(fr.ID, 10, 64); perr == nil {
			*last = n
		}
		switch fr.Event {
		case eventKindWindow:
			var ev WindowEvent
			if json.Unmarshal(fr.Data, &ev) != nil {
				return nil
			}
			// Local identity, remote measurement: consumers of this
			// daemon's feeds see this daemon's job ids.
			ev.JobID = job.ID
			s.emitWindowEvent(job, ev)
		case eventKindEnd:
			done = true
			return ErrSSEStop
		}
		return nil
	})
	return done, err
}
