// Package server is the batch-solving service layer of the duedate
// reproduction: an HTTP JSON API that accepts CDD, UCDDCP and EARLYWORK
// instances — single- or parallel-machine — and dispatches them onto a
// bounded worker pool of registry-resolved solvers.
//
// The design maps the paper's two-layer architecture onto a long-lived
// serving path. Each request becomes one ensemble solve resolved through
// the duedate driver registry; a fixed-size pool bounds concurrent
// solves, a fixed-depth queue absorbs bursts, and admission control
// answers 429 the moment the queue is full instead of letting latency
// grow without bound. Per-request deadlines are stamped at admission (so
// queue wait counts against them) and honored cooperatively by the
// engines via core.Budget — an expired deadline returns the valid
// best-so-far with interrupted=true, never an error. Completed
// full-budget results enter an LRU cache keyed by (canonical instance
// hash, algorithm, engine, seed, iterations, geometry, SA knobs) after
// option normalisation, so identical resubmissions are answered without
// a solve. Solve responses are bit-identical to a direct
// duedate.SolveContext call with the same options.
//
// Long solves do not need to hold a connection open: the async job API
// admits the same SolveRequest onto the same pool and answers 202 with
// a job id immediately. Clients poll the job, stream its engine
// checkpoints as server-sent events, or cancel it cooperatively; a
// completed async result enters the same LRU cache, so a later
// synchronous resubmission is a hit. The job store is bounded by a
// terminal-job capacity (LRU eviction) and a TTL swept on lifecycle
// events. Every non-2xx response across every endpoint is the unified
// error envelope {"error":{"code":"<stable>","message":"..."}}, and
// backpressure answers (429 queue-full, 503 draining) carry a
// Retry-After estimated from the pool backlog and the recent mean solve
// time.
//
// Endpoints:
//
//	POST   /v1/solve            one instance → one SolveResponse
//	POST   /v1/batch            many instances through the same pool, per-item status
//	POST   /v1/jobs             admit an async solve → 202 + job id
//	GET    /v1/jobs/{id}        poll job state/result
//	GET    /v1/jobs/{id}/events engine checkpoints as SSE, terminal "result" event
//	DELETE /v1/jobs/{id}        cancel cooperatively → honest best-so-far
//	GET    /v1/pairings         the live algorithm×engine registry + capability matrix
//	GET    /healthz             liveness; 503 once draining
//	GET    /metrics             ServerStats + job gauges + the obs.Registry solver aggregates
//
// Shutdown is a graceful drain: the daemon (cmd/duedated) binds
// SIGINT/SIGTERM to a context, stops the listener, and calls Drain,
// which completes every queued and running solve before the process
// exits; running async jobs get the job grace to finish before being
// cancelled to their best-so-far.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	duedate "repro"
	"repro/internal/obs"
	"repro/internal/problem"
)

// Config sizes the service. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, a 512-entry cache, counters-level solver
// metrics, and no default or maximum deadline.
type Config struct {
	// Pool is the number of worker goroutines executing solves
	// concurrently (default GOMAXPROCS).
	Pool int
	// QueueDepth is the number of admitted-but-waiting solves beyond the
	// running ones; a full queue answers 429 (default 64). Negative
	// means a zero-depth queue: a request is admitted only when a worker
	// is free to take it immediately.
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 512;
	// negative disables caching).
	CacheSize int
	// DefaultTimeout is applied to requests that carry no timeoutMs
	// (zero: no deadline).
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request's deadline (zero: no clamp).
	MaxTimeout time.Duration
	// Metrics is the instrumentation level solves run at; the snapshots
	// aggregate into the /metrics payload (default MetricsCounters —
	// trajectories are metrics-invariant, so this never changes results).
	Metrics duedate.MetricsLevel
	// Jobs bounds the terminal (done/failed/cancelled) async jobs the
	// job store retains for polling; past it the least recently polled
	// are evicted (default 256; values below 1 are raised to 1 so the
	// most recent completion is always pollable).
	Jobs int
	// JobTTL expires retained terminal jobs, swept on the store's
	// lifecycle events — submissions and drain — never on the poll hot
	// path (default 15 minutes; negative disables expiry).
	JobTTL time.Duration
	// JobGrace is how long live async jobs may keep solving after Drain
	// begins before being cancelled to their best-so-far (default 5s;
	// negative cancels immediately).
	JobGrace time.Duration
	// DefaultAlgorithm answers requests whose "algorithm" field is
	// absent. The zero value is SA — the service's historical default —
	// so existing deployments are unchanged; duedated -algorithm auto
	// switches unspecified requests onto the self-tuning portfolio
	// driver. Explicit request algorithms always win.
	DefaultAlgorithm duedate.Algorithm
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	}
	switch {
	case c.CacheSize < 0:
		c.CacheSize = 0
	case c.CacheSize == 0:
		c.CacheSize = 512
	}
	if c.Metrics == duedate.MetricsOff {
		c.Metrics = duedate.MetricsCounters
	}
	switch {
	case c.Jobs == 0:
		c.Jobs = 256
	case c.Jobs < 0:
		c.Jobs = 1
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.JobGrace == 0 {
		c.JobGrace = 5 * time.Second
	}
	return c
}

// solveFunc is the pool's solver entry point; tests substitute it to
// control timing deterministically. Production is duedate.SolveContext.
type solveFunc func(ctx context.Context, in *problem.Instance, opts duedate.Options) (duedate.Result, error)

// serverStats holds the admission/cache counters behind /metrics.
// solved/solveNs accumulate completed-solve wall time for the mean
// behind the Retry-After estimate.
type serverStats struct {
	requests  atomic.Int64
	completed atomic.Int64
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64
	active    atomic.Int64
	solved    atomic.Int64
	solveNs   atomic.Int64
}

// Server is the batch-solving service: an http.Handler plus the worker
// pool behind it. Create it with New; shut it down with Drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	queue    chan *task
	workers  sync.WaitGroup
	closeMu  sync.RWMutex
	draining atomic.Bool
	cache    *lru[*SolveResponse]
	wire     *lru[[]byte]
	registry *obs.Registry
	jobs     *jobStore
	gauges   *obs.GaugeSet
	stats    serverStats
	solve    solveFunc
	started  time.Time
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	gauges := &obs.GaugeSet{}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    make(chan *task, cfg.QueueDepth),
		cache:    newLRU[*SolveResponse](cfg.CacheSize),
		wire:     newLRU[[]byte](cfg.CacheSize),
		registry: &obs.Registry{},
		jobs:     newJobStore(cfg.Jobs, cfg.JobTTL, gauges),
		gauges:   gauges,
		solve:    duedate.SolveContext,
		started:  time.Now(),
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/pairings", s.handlePairings)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleNotFound)
	s.workers.Add(cfg.Pool)
	for i := 0; i < cfg.Pool; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxBodyBytes bounds request bodies; a 1000-job instance is ~50 KiB, so
// 32 MiB leaves room for very large batches.
const maxBodyBytes = 32 << 20

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeRaw writes a pre-encoded JSON body — the wire-hit fast path. The
// Content-Type is only set when absent so a reused header map (the
// steady-state benchmark harness, keep-alive serving) costs no
// allocation.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes the unified error envelope with its stable code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeBackpressure writes a 429/503 envelope with a Retry-After header
// estimating when capacity frees up, so clients and load balancers back
// off intelligently instead of hammering.
func (s *Server) writeBackpressure(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, status, code, format, args...)
}

// retryAfterSeconds estimates the backoff for turned-away clients: the
// pool backlog (queued + running + the rejected request itself) divided
// across the workers, priced at the recent mean solve wall time (one
// second before any solve completed). Clamped to [1s, 300s].
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if n := s.stats.solved.Load(); n > 0 {
		if m := time.Duration(s.stats.solveNs.Load() / n); m > 0 {
			mean = m
		}
	}
	backlog := int64(len(s.queue)) + s.stats.active.Load() + 1
	est := time.Duration(int64(mean) * backlog / int64(s.cfg.Pool))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// decodeSolveRequest decodes and structurally validates one request
// body's worth of JSON into req.
func decodeSolveRequest(body []byte, req *SolveRequest) error {
	if err := decodeStrict(body, req); err != nil {
		return err
	}
	if req.Instance == nil {
		return errors.New(`missing "instance"`)
	}
	return nil
}

// decodeStrict decodes body into v, rejecting unknown fields (the
// service's long-standing contract for typo'd option names).
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeErrorCode maps a request-decode failure onto its HTTP status
// and stable code. The instance is validated while decoding, so
// semantic rejections surface here: an unknown problem kind or an
// invalid machine count is a well-formed request for something the
// service does not support (422, keeping the sentinels' identity
// alongside ErrUnsupportedPairing), while malformed JSON and structural
// mistakes stay 400.
func decodeErrorCode(err error) (int, string) {
	if errors.Is(err, problem.ErrUnknownKind) {
		return http.StatusUnprocessableEntity, CodeUnknownKind
	}
	if errors.Is(err, problem.ErrMachines) {
		return http.StatusUnprocessableEntity, CodeInvalidMachines
	}
	return http.StatusBadRequest, CodeInvalidRequest
}

// solveOne runs one request through cache → admission → pool and
// returns the response or the failure's (HTTP status, stable code,
// error). It is the shared core of the solve and batch handlers.
func (s *Server) solveOne(ctx context.Context, req *SolveRequest) (*SolveResponse, int, string, error) {
	req.applyDefaults(s.cfg.DefaultAlgorithm)
	// A doomed request fails here, before it costs a queue slot, with
	// the (status, code) the solve itself would have returned.
	opts, err := duedate.ValidateOptions(req.options())
	if err != nil {
		status, code := errorCode(err)
		return nil, status, code, err
	}
	key := cacheKey(req.Instance, opts)
	if resp, ok := s.cachedFor(req, key); ok {
		return resp, http.StatusOK, "", nil
	}
	opts.Metrics = s.cfg.Metrics
	opts.Deadline = s.deadlineFor(req)
	t := getTask()
	t.ctx, t.req, t.opts, t.key = ctx, req, opts, key
	if !s.submit(t) {
		putTask(t)
		if s.draining.Load() {
			return nil, http.StatusServiceUnavailable, CodeDraining, errors.New("server is draining")
		}
		return nil, http.StatusTooManyRequests, CodeQueueFull,
			fmt.Errorf("queue full (%d waiting, %d running)", s.cfg.QueueDepth, s.cfg.Pool)
	}
	// The worker sends exactly one result, so after this receive the task
	// (and its drained done channel) can carry the next request.
	res := <-t.done
	putTask(t)
	if res.err != nil {
		status, code := errorCode(res.err)
		return nil, status, code, res.err
	}
	return res.resp, http.StatusOK, "", nil
}

// cachedFor is the one result-cache lookup of every endpoint. Unless
// req opts out with noCache, it counts a hit or miss and, on a hit,
// answers req with a copy of the stored response marked cached. The
// copy echoes req's own instance name, algorithm and engine: the key
// excludes the name and is built from normalised options, so the
// stored response may have answered a differently spelled request.
func (s *Server) cachedFor(req *SolveRequest, key []byte) (*SolveResponse, bool) {
	if req.NoCache {
		return nil, false
	}
	stored, ok := s.cache.get(key)
	if !ok {
		s.stats.cacheMiss.Add(1)
		return nil, false
	}
	s.stats.cacheHits.Add(1)
	resp := *stored
	resp.Cached = true
	resp.Instance = req.Instance.Name
	resp.Algorithm = *req.Algorithm
	resp.Engine = req.Engine
	return &resp, true
}

// handleSolve is POST /v1/solve. The steady-state path is the wire
// cache: an exact byte-level resubmission is answered from the stored
// encoding without decoding, solving or re-encoding anything — zero
// allocations end to end (guarded by BenchmarkServeSolveAllocs and the
// CI threshold). Misses decode into pooled request structs and, when the
// solve completes clean, store the response's cached-form encoding for
// the next resubmission.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
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
	if s.wireHit(w, buf.b) {
		return
	}
	req := solveReqPool.Get().(*SolveRequest)
	defer putSolveRequest(req)
	if err := decodeSolveRequest(buf.b, req); err != nil {
		status, code := decodeErrorCode(err)
		writeError(w, status, code, "bad request: %v", err)
		return
	}
	resp, status, code, err := s.solveOne(r.Context(), req)
	if err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.writeBackpressure(w, status, code, "%v", err)
			return
		}
		writeError(w, status, code, "%v", err)
		return
	}
	writeJSON(w, status, resp)
	// Only complete, cache-eligible answers enter the wire layer — the
	// same rule the result cache applies, so the two can never disagree.
	// The stored form is the one its future hits are served as.
	if !resp.Interrupted && !req.NoCache {
		cached := *resp
		cached.Cached = true
		s.wirePut(buf.b, &cached)
	}
}

// handleBatch is POST /v1/batch: every job goes through the same
// admission path concurrently, and each slot reports its own
// HTTP-equivalent status, so one saturated or invalid job never fails
// the jobs around it.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
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
	if s.wireHit(w, buf.b) {
		return
	}
	batch := getBatchRequest()
	defer putBatchRequest(batch)
	if err := decodeStrict(buf.b, batch); err != nil {
		status, code := decodeErrorCode(err)
		writeError(w, status, code, "bad request: %v", err)
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, `empty "requests"`)
		return
	}
	br := getBatchResults(len(batch.Requests))
	defer putBatchResults(br)
	results := br.rs
	var wg sync.WaitGroup
	for i := range batch.Requests {
		req := &batch.Requests[i]
		if req.Instance == nil {
			results[i] = BatchResult{Error: `missing "instance"`, Code: CodeInvalidRequest, Status: http.StatusBadRequest}
			continue
		}
		wg.Add(1)
		go func(i int, req *SolveRequest) {
			defer wg.Done()
			resp, status, code, err := s.solveOne(r.Context(), req)
			if err != nil {
				results[i] = BatchResult{Error: err.Error(), Code: code, Status: status}
				return
			}
			results[i] = BatchResult{Response: resp, Status: status}
		}(i, req)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
	s.wirePutBatch(buf.b, batch, results)
}

// wirePutBatch stores the batch response's cached-form encoding when
// every slot completed clean and cache-eligible — the all-or-nothing
// analogue of the solve path's rule (a single 429 or interrupted slot
// must be retried, not replayed).
func (s *Server) wirePutBatch(body []byte, batch *BatchRequest, results []BatchResult) {
	for i := range batch.Requests {
		if batch.Requests[i].NoCache {
			return
		}
	}
	for i := range results {
		if results[i].Status != http.StatusOK || results[i].Response == nil || results[i].Response.Interrupted {
			return
		}
	}
	cached := make([]BatchResult, len(results))
	for i := range results {
		c := *results[i].Response
		c.Cached = true
		cached[i] = BatchResult{Response: &c, Status: results[i].Status}
	}
	s.wirePut(body, BatchResponse{Results: cached})
}

// handlePairings is GET /v1/pairings: the live registry with each
// pairing's capability surface (problem kinds, parallel-machine
// support), so clients route instances without trial-and-error 422s.
func (s *Server) handlePairings(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	var resp PairingsResponse
	for _, p := range duedate.Pairings() {
		kinds := make([]string, len(p.Kinds))
		for i, k := range p.Kinds {
			kinds[i] = k.String()
		}
		resp.Pairings = append(resp.Pairings, PairingInfo{
			Algorithm: p.Algorithm, Engine: p.Engine, Kinds: kinds, Machines: p.Machines,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is GET /healthz. Once draining, the answer is the 503
// error envelope (code "draining", with Retry-After) like every other
// non-2xx response, so load balancers and envelope-aware clients see
// one shape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	if s.draining.Load() {
		s.writeBackpressure(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Pool: s.cfg.Pool, QueueDepth: s.cfg.QueueDepth})
}

// handleNotFound is the catch-all for unknown paths, keeping even 404s
// inside the unified envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, CodeNotFound, "no such resource %q", r.URL.Path)
}

// MetricsResponse is the wire form of GET /metrics: the server's
// admission/cache counters next to the obs.Registry aggregation of every
// solve's core.Metrics snapshot.
type MetricsResponse struct {
	// Server holds the admission, cache and pool counters.
	Server ServerStats `json:"server"`
	// Jobs holds the async job gauges (submitted/queued/running/
	// done/failed/cancelled/evicted/expired/sseSubscribers).
	Jobs map[string]int64 `json:"jobs"`
	// Solver holds the cross-run solver aggregates (evaluation splits,
	// acceptances, per-phase timing at the kernels level).
	Solver obs.RegistrySnapshot `json:"solver"`
	// CacheEntries is the live result-cache size; JobEntries the live
	// job-store size (live + retained terminal jobs).
	CacheEntries int `json:"cacheEntries"`
	JobEntries   int `json:"jobEntries"`
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	var meanSolve int64
	if n := s.stats.solved.Load(); n > 0 {
		meanSolve = s.stats.solveNs.Load() / n
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		Server: ServerStats{
			Requests:    s.stats.requests.Load(),
			Completed:   s.stats.completed.Load(),
			CacheHits:   s.stats.cacheHits.Load(),
			CacheMisses: s.stats.cacheMiss.Load(),
			Rejected:    s.stats.rejected.Load(),
			Errors:      s.stats.errors.Load(),
			MeanSolveNs: meanSolve,
			Active:      s.stats.active.Load(),
			Queued:      len(s.queue),
			Pool:        s.cfg.Pool,
			QueueDepth:  s.cfg.QueueDepth,
			Draining:    s.draining.Load(),
			Uptime:      time.Since(s.started),
		},
		Jobs:         s.gauges.Snapshot(),
		Solver:       s.registry.Snapshot(),
		CacheEntries: s.cache.len(),
		JobEntries:   s.jobs.len(),
	})
}

// Run serves the API on l until ctx is cancelled — the daemon binds
// SIGINT/SIGTERM to ctx, so cancellation is the signal path — then
// performs the graceful drain: stop accepting connections, wait (up to
// grace) for in-flight handlers, and drain the worker pool so every
// admitted solve completes. It returns nil on a clean drain.
func Run(ctx context.Context, l net.Listener, cfg Config, grace time.Duration) error {
	s := New(cfg)
	// Request contexts deliberately do not descend from ctx: during the
	// grace window in-flight solves run to completion instead of being
	// interrupted the instant the signal lands (client disconnects still
	// cancel per-request contexts).
	httpSrv := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(l) }()
	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	// Shutdown stops the listener and waits for active handlers, whose
	// solves the pool is still executing; Drain then retires the pool.
	shutdownErr := httpSrv.Shutdown(graceCtx)
	if err := s.Drain(graceCtx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if shutdownErr != nil {
		return fmt.Errorf("server: shutdown: %w", shutdownErr)
	}
	return nil
}
