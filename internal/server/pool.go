package server

import (
	"context"
	"time"

	duedate "repro"
)

// task is one admitted solve job travelling from an HTTP handler through
// the queue to a pool worker and back.
type task struct {
	// ctx is the request context (cancelled on client disconnect); the
	// worker solves under it so abandoned requests stop consuming the
	// pool at the engine's next cooperative boundary.
	ctx context.Context
	// req is the decoded request, opts its normalised facade translation
	// with the admission-time deadline already stamped.
	req  *SolveRequest
	opts duedate.Options
	// key is the result-cache key.
	key []byte
	// job is non-nil for async (/v1/jobs) tasks: the worker publishes
	// the outcome into the job store instead of the done channel, and
	// recycles the task itself.
	job *job
	// done receives exactly one taskResult; it is buffered so a worker
	// never blocks on a handler that gave up.
	done chan taskResult
}

// taskResult is a worker's answer to one task.
type taskResult struct {
	resp *SolveResponse
	err  error
}

// submit offers the task to the admission queue without blocking. It
// returns false when the queue is saturated (the caller answers 429) or
// the server is draining (503).
func (s *Server) submit(t *task) bool {
	// The read lock pairs with the write lock in Drain: once draining is
	// set and the queue closed, no submit can be in flight, so the close
	// below can never race a send.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.queue <- t:
		s.stats.requests.Add(1)
		return true
	default:
		s.stats.rejected.Add(1)
		return false
	}
}

// worker drains the admission queue until it is closed and empty —
// queued work is completed, not dropped, during a graceful drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		s.runTask(t)
	}
}

// runTask is the one worker path of sync and async tasks: the context
// check, the solve, observation, the response and the cache put, ending
// in the task's completion step.
func (s *Server) runTask(t *task) {
	s.stats.active.Add(1)
	defer s.stats.active.Add(-1)
	defer s.stats.completed.Add(1)

	// A job cancelled while queued is already terminal, and a client
	// that disconnected while queued reads no answer: don't burn a pool
	// slot on either.
	if t.job != nil && !s.jobs.tryRun(t.job) {
		putTask(t)
		return
	}
	if err := t.ctx.Err(); err != nil {
		s.complete(t, nil, err)
		return
	}
	start := time.Now()
	res, err := s.solve(t.ctx, t.req.Instance, t.opts)
	if err != nil {
		if t.ctx.Err() == nil {
			s.stats.errors.Add(1)
		}
		s.complete(t, nil, err)
		return
	}
	s.observeSolve(time.Since(start))
	s.registry.Observe(res.Metrics)
	resp := buildResponse(t.req, t.opts, res)
	// Only full-budget results are cacheable; an interrupted best-so-far
	// is valid but not the answer future requests are asking for.
	if !resp.Interrupted {
		s.cache.put(t.key, resp)
	}
	s.complete(t, resp, nil)
}

// complete is a task's completion step. A sync task's handler receives
// the outcome on the done channel and recycles the task. An async task's
// outcome goes to the job store — cancelled when DELETE or the drain
// grace cancelled its context (with the honest best-so-far when the
// solve ran), failed on a solve error, done otherwise — and the worker
// recycles the task, since the submitting handler returned its 202 long
// ago.
func (s *Server) complete(t *task, resp *SolveResponse, err error) {
	j := t.job
	if j == nil {
		t.done <- taskResult{resp: resp, err: err}
		return
	}
	defer putTask(t)
	switch {
	case t.ctx.Err() != nil:
		s.jobs.finishCancelled(j, resp)
	case err != nil:
		status, code := errorCode(err)
		s.jobs.finishFailed(j, status, code, err.Error())
	default:
		s.jobs.finishDone(j, resp)
	}
}

// observeSolve accumulates completed-solve wall time; the mean feeds
// the Retry-After estimate and /metrics.
func (s *Server) observeSolve(d time.Duration) {
	s.stats.solved.Add(1)
	s.stats.solveNs.Add(int64(d))
}

// Drain performs the graceful-shutdown handshake: it flips the server
// into draining mode (healthz answers 503, new solve requests are turned
// away), closes the admission queue, and waits — bounded by ctx — for
// the pool to finish every queued and running solve. It is safe to call
// once; the HTTP listener should stop accepting requests (e.g. via
// http.Server.Shutdown) before or concurrently with Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.closeMu.Lock()
	already := s.draining.Swap(true)
	if !already {
		close(s.queue)
	}
	s.closeMu.Unlock()
	if already {
		return nil
	}
	// Give live async jobs the configured grace to finish on their own;
	// past it, cancel them so they terminate with their honest
	// best-so-far instead of holding the drain open.
	stop := s.jobs.beginDrain(s.cfg.JobGrace)
	defer stop()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadlineFor resolves a request's wall-clock budget at admission time:
// the request's timeoutMs, defaulted and clamped by the server config.
// A zero return means no deadline.
func (s *Server) deadlineFor(req *SolveRequest) time.Time {
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(timeout)
}
