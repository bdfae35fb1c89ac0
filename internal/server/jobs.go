package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	duedate "repro"
)

// This file is the async half of the API: POST /v1/jobs admits a solve
// and answers 202 immediately, GET /v1/jobs/{id} polls it, GET
// /v1/jobs/{id}/events streams engine checkpoints as SSE, and DELETE
// /v1/jobs/{id} cancels it cooperatively. Jobs ride the same bounded
// pool, admission control, deadline stamping and result cache as the
// synchronous endpoints — an async solve's trajectory is bit-identical
// to /v1/solve with the same request, and its completed result makes a
// later synchronous resubmission a cache hit.

// sseHeartbeat is the comment-line keep-alive period of the events
// stream (a package variable so tests can shrink it).
var sseHeartbeat = 15 * time.Second

// handleJobs is POST /v1/jobs: validate, admit onto the pool, answer
// 202 with the job id. The request context is deliberately not the
// job's context — the client is expected to disconnect after the 202
// and come back to poll.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	if err := readBody(r, buf); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "bad request: %v", err)
		return
	}
	// The job outlives this handler, so its request is a fresh
	// allocation, never a pooled carrier.
	req := new(SolveRequest)
	if err := decodeSolveRequest(buf.b, req); err != nil {
		status, code := decodeErrorCode(err)
		writeError(w, status, code, "bad request: %v", err)
		return
	}
	req.applyDefaults(s.cfg.DefaultAlgorithm)
	// A doomed submission is rejected here with the same (status, code)
	// the synchronous path answers, instead of a 202 whose poll later
	// reveals a failed job.
	opts, err := duedate.ValidateOptions(req.options())
	if err != nil {
		status, code := errorCode(err)
		writeError(w, status, code, "%v", err)
		return
	}
	key := cacheKey(req.Instance, opts)
	if s.draining.Load() {
		s.writeBackpressure(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	opts.Metrics = s.cfg.Metrics
	opts.Deadline = s.deadlineFor(req)
	ctx, cancel := context.WithCancel(context.Background())
	j := s.jobs.add(req, cancel)

	// A result-cache hit completes the job without touching the pool —
	// the same answer the synchronous path would have served.
	if resp, ok := s.cachedFor(req, key); ok {
		s.jobs.finishDone(j, resp)
		s.writeJobSubmitted(w, j)
		return
	}

	opts.Progress = func(snap duedate.Snapshot) { s.jobs.publish(j, snap) }
	t := getTask()
	t.ctx, t.req, t.opts, t.key, t.job = ctx, req, opts, key, j
	if !s.submit(t) {
		putTask(t)
		s.jobs.abort(j)
		cancel()
		if s.draining.Load() {
			s.writeBackpressure(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
			return
		}
		s.writeBackpressure(w, http.StatusTooManyRequests, CodeQueueFull,
			"queue full (%d waiting, %d running)", s.cfg.QueueDepth, s.cfg.Pool)
		return
	}
	s.writeJobSubmitted(w, j)
}

// writeJobSubmitted answers the 202 with the job view and its polling
// location.
func (s *Server) writeJobSubmitted(w http.ResponseWriter, j *job) {
	loc := "/v1/jobs/" + j.id
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{Job: s.jobs.view(j), Location: loc})
}

// handleJob routes /v1/jobs/{id} and /v1/jobs/{id}/events.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "events") {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such resource %q", r.URL.Path)
		return
	}
	j := s.jobs.get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job %q (completed jobs are retained up to capacity/TTL)", id)
		return
	}
	switch {
	case sub == "events":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
			return
		}
		s.streamJobEvents(w, r, j)
	case r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.jobs.view(j))
	case r.Method == http.MethodDelete:
		s.cancelJob(w, r, j)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or DELETE only")
	}
}

// cancelJob is DELETE /v1/jobs/{id}: cancel the job's context and wait
// — bounded by the client's own context — for the engine's cooperative
// stop, then answer with the terminal view: cancelled with the honest
// best-so-far (interrupted=true) for a mid-solve cancel, cancelled
// without a result for a queued one. Cancelling a terminal job is a
// no-op answering the current view, so DELETE is idempotent.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request, j *job) {
	s.jobs.requestCancel(j)
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client gave up waiting; the cancellation itself stands.
	}
	writeJSON(w, http.StatusOK, s.jobs.view(j))
}

// streamJobEvents is GET /v1/jobs/{id}/events: a text/event-stream of
// "snapshot" events (engine best-so-far checkpoints, replaying the
// latest one to late subscribers), comment-line heartbeats, and exactly
// one terminal "result" event carrying the final job view, after which
// the stream ends.
func (s *Server) streamJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	sub, last := s.jobs.subscribe(j)
	defer s.jobs.unsubscribe(j, sub)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if last != nil {
		writeSSE(w, "snapshot", snapshotEvent(*last))
	}
	fl.Flush()
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case snap := <-sub.ch:
			writeSSE(w, "snapshot", snapshotEvent(snap))
			fl.Flush()
		case <-j.done:
			// Deliver snapshots that were buffered before the terminal
			// transition, then the result; publishes happen strictly
			// before the done close, so this drain is complete.
			for {
				select {
				case snap := <-sub.ch:
					writeSSE(w, "snapshot", snapshotEvent(snap))
					continue
				default:
				}
				break
			}
			writeSSE(w, "result", s.jobs.view(j))
			fl.Flush()
			return
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one server-sent event with a JSON data payload.
func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
