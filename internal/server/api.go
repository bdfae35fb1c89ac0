package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/problem"
)

// SolveRequest is the wire form of one solve job: the instance (in the
// internal/problem JSON format) plus the solver configuration. Absent
// fields select the facade defaults — the zero request solves with the
// paper's GPU-SA configuration — so the minimal body is just
// {"instance": {...}}.
type SolveRequest struct {
	// Instance is the CDD, UCDDCP or EARLYWORK instance to solve — single-
	// or parallel-machine (a "machines" field > 1 in the instance JSON);
	// it is validated while decoding (problem.Instance.UnmarshalJSON), and
	// semantic rejections (unknown kind, negative machine count) answer
	// 422 instead of the generic 400 of malformed bodies.
	Instance *problem.Instance `json:"instance"`
	// Algorithm names the solver ("SA", "DPSO", "TA", "ES", "EXACT-DP",
	// or "AUTO" for the self-tuning portfolio driver). Absent (null), the
	// server's configured default algorithm applies — historically SA,
	// switchable to AUTO with duedated -algorithm; a pointer so an
	// explicit "SA" and "field absent" stay distinguishable.
	Algorithm *duedate.Algorithm `json:"algorithm,omitempty"`
	// Engine names the backend ("gpu", "cpu-parallel", "cpu-serial";
	// default gpu).
	Engine duedate.Engine `json:"engine,omitempty"`
	// Iterations is the per-chain iteration budget (default 1000).
	Iterations int `json:"iterations,omitempty"`
	// Grid and Block set the ensemble geometry (default 4 × 192).
	Grid  int `json:"grid,omitempty"`
	Block int `json:"block,omitempty"`
	// Seed derives all RNG streams (0 is the facade's "unset" sentinel,
	// rewritten to 1).
	Seed uint64 `json:"seed,omitempty"`
	// Cooling, Pert and TempSamples are the SA tuning knobs (defaults
	// 0.88, 4, 5000).
	Cooling     float64 `json:"cooling,omitempty"`
	Pert        int     `json:"pert,omitempty"`
	TempSamples int     `json:"tempSamples,omitempty"`
	// Persistent selects the persistent-kernel GPU SA engine.
	Persistent bool `json:"persistent,omitempty"`
	// Workers bounds the host goroutines of the cpu-parallel engine.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs is the per-request wall-clock budget in milliseconds,
	// measured from admission (so queue wait counts against it). On
	// expiry the engine stops cooperatively and the response carries the
	// best-so-far with interrupted=true. Zero selects the server's
	// default; the server's maximum always clamps it.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoCache bypasses the result cache for this request (the solve still
	// populates it).
	NoCache bool `json:"noCache,omitempty"`
}

// applyDefaults resolves the request's absent algorithm to the server's
// configured default. Every decode path calls it exactly once before
// options() or the job store run, so those always see a concrete
// selection.
func (r *SolveRequest) applyDefaults(def duedate.Algorithm) {
	if r.Algorithm == nil {
		a := def
		r.Algorithm = &a
	}
}

// options translates the request into facade Options. The deadline is
// not set here — the pool stamps it at admission time.
func (r *SolveRequest) options() duedate.Options {
	return duedate.Options{
		Algorithm:   *r.Algorithm,
		Engine:      r.Engine,
		Iterations:  r.Iterations,
		Grid:        r.Grid,
		Block:       r.Block,
		Seed:        r.Seed,
		Cooling:     r.Cooling,
		Pert:        r.Pert,
		TempSamples: r.TempSamples,
		Persistent:  r.Persistent,
		Workers:     r.Workers,
	}
}

// cacheKey derives the result-cache key: the instance's canonical hash
// plus every option that participates in the solve trajectory, taken
// from the normalised options duedate.ValidateOptions returns. Requests
// that spell one trajectory differently — seed 0 and 1, grid 0 and 4,
// AUTO on any engine — therefore share one entry. Workers is
// deliberately excluded — fixed-seed results are bit-identical across
// worker counts (pinned by the engine-layer tests) — as is the metrics
// level, which never perturbs a trajectory.
func cacheKey(in *problem.Instance, opts duedate.Options) []byte {
	return fmt.Appendf(nil, "%s|%s|%s|it=%d|g=%d|b=%d|seed=%d|mu=%g|pert=%d|ts=%d|pers=%t",
		in.CanonicalHash(), opts.Algorithm, opts.Engine,
		opts.Iterations, opts.Grid, opts.Block, opts.Seed,
		opts.Cooling, opts.Pert, opts.TempSamples, opts.Persistent)
}

// SolveResponse is the wire form of one solve outcome. For identical
// (instance, algorithm, engine, seed, iterations, geometry) the cost and
// sequence are bit-identical to a direct duedate.SolveContext call — the
// server adds queueing and caching, never a different trajectory.
type SolveResponse struct {
	// Instance echoes the instance name, Kind the problem ("CDD",
	// "UCDDCP" or "EARLYWORK"), N the job count, Machines the machine
	// count (omitted on single-machine instances, matching the instance
	// wire form) and InstanceHash the canonical SHA-256 digest used as the
	// cache-key prefix — it covers the machine count, so the same job set
	// on a different machine count never collides in the cache.
	Instance     string `json:"instance"`
	Kind         string `json:"kind"`
	N            int    `json:"n"`
	Machines     int    `json:"machines,omitempty"`
	InstanceHash string `json:"instanceHash"`
	// Algorithm and Engine echo the (defaulted) solver selection; Seed
	// the (defaulted) RNG seed.
	Algorithm duedate.Algorithm `json:"algorithm"`
	Engine    duedate.Engine    `json:"engine"`
	Seed      uint64            `json:"seed"`
	// Iterations is the per-chain iteration count actually executed.
	Iterations int `json:"iterations"`
	// Cost is the exact objective of Sequence; Start the optimal first
	// start time; Compressions the per-job compressions (UCDDCP only).
	// On parallel-machine instances Sequence is the solver's delimiter
	// genome (values ≥ n are machine separators), Assignment records each
	// job's machine (indexed by job id) and MachineStarts each machine's
	// start time; on single-machine instances Sequence is the plain job
	// order and both extra fields are omitted, keeping the wire form
	// byte-identical to the pre-generalization service.
	Cost          int64   `json:"cost"`
	Sequence      []int   `json:"sequence"`
	Start         int64   `json:"start"`
	Compressions  []int64 `json:"compressions,omitempty"`
	Assignment    []int   `json:"assignment,omitempty"`
	MachineStarts []int64 `json:"machineStarts,omitempty"`
	// Evaluations counts fitness evaluations across all chains; ElapsedNs
	// is the solve's host wall time (the original solve's for cache
	// hits); SimSeconds the simulated device time on the GPU engine.
	Evaluations int64   `json:"evaluations"`
	ElapsedNs   int64   `json:"elapsedNs"`
	SimSeconds  float64 `json:"simSeconds,omitempty"`
	// Interrupted reports a deadline/cancellation cut the run short; the
	// result is still the valid best-so-far. Interrupted results are
	// never cached.
	Interrupted bool `json:"interrupted"`
	// Optimal reports an optimality certificate: the solver proved Cost
	// is the global optimum (only the exact EXACT-DP layer sets it, after
	// self-checking its certificate sequence against the evaluator).
	// Omitted — not false — for the metaheuristics, which cannot prove
	// optimality even when they reach it.
	Optimal bool `json:"optimal,omitempty"`
	// Cached reports that this response was served from the result cache.
	Cached bool `json:"cached"`
}

// buildResponse assembles the response for a completed solve under the
// normalised opts. It echoes the algorithm and engine the request sent
// (normalisation folds AUTO's engine onto its registry key) and the
// normalised seed.
func buildResponse(req *SolveRequest, opts duedate.Options, res duedate.Result) *SolveResponse {
	sched := res.Schedule(req.Instance)
	resp := &SolveResponse{
		Instance:      req.Instance.Name,
		Kind:          req.Instance.Kind.String(),
		N:             req.Instance.N(),
		InstanceHash:  req.Instance.CanonicalHash(),
		Algorithm:     *req.Algorithm,
		Engine:        req.Engine,
		Seed:          opts.Seed,
		Iterations:    res.Iterations,
		Cost:          res.BestCost,
		Sequence:      res.BestSeq,
		Start:         sched.Start,
		Compressions:  sched.X,
		Assignment:    sched.Assign,
		MachineStarts: sched.Starts,
		Evaluations:   res.Evaluations,
		ElapsedNs:     int64(res.Elapsed),
		SimSeconds:    res.SimSeconds,
		Interrupted:   res.Interrupted,
		Optimal:       res.Optimal,
	}
	if m := req.Instance.MachineCount(); m > 1 {
		resp.Machines = m
	}
	return resp
}

// BatchRequest is the wire form of POST /v1/batch: independent solve
// jobs that share the server's worker pool and cache.
type BatchRequest struct {
	// Requests are the jobs; each is admitted (and possibly rejected)
	// individually.
	Requests []SolveRequest `json:"requests"`
}

// BatchResult is one slot of a batch response: either a response or an
// error with its HTTP-equivalent status (e.g. 429 for a job that found
// the queue full, 422 for an unsupported pairing).
type BatchResult struct {
	// Response is the solve outcome, nil when the slot errored.
	Response *SolveResponse `json:"response,omitempty"`
	// Error describes the failure, empty on success; Code is its stable
	// error code (the same table as top-level error envelopes).
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Status is the slot's HTTP-equivalent status code (200 on success).
	Status int `json:"status"`
}

// BatchResponse is the wire form of a batch outcome, one result per
// request in order.
type BatchResponse struct {
	// Results holds one slot per request, index-aligned.
	Results []BatchResult `json:"results"`
}

// PairingInfo is one registered algorithm×engine combination as reported
// by GET /v1/pairings, including its capability surface so clients route
// instances (problem kind, machine count) without trial-and-error 422s.
type PairingInfo struct {
	// Algorithm and Engine name the combination in the same spelling the
	// solve endpoints accept.
	Algorithm duedate.Algorithm `json:"algorithm"`
	Engine    duedate.Engine    `json:"engine"`
	// Kinds lists the problem kinds the pairing evaluates ("CDD",
	// "UCDDCP", "EARLYWORK"), enumerated live from the driver registry.
	Kinds []string `json:"kinds"`
	// Machines reports parallel-machine (machines > 1) support.
	Machines bool `json:"machines"`
}

// PairingsResponse is the wire form of GET /v1/pairings: the live driver
// registry, so clients discover supported combinations instead of
// hardcoding them.
type PairingsResponse struct {
	// Pairings is sorted by algorithm then engine (duedate.Pairings).
	Pairings []PairingInfo `json:"pairings"`
}

// Stable error codes of the unified error envelope. Every non-2xx
// response across every endpoint carries exactly one of these in
// ErrorResponse.Error.Code; they are part of the wire contract (clients
// and the smoke scripts branch on them), so existing codes never change
// meaning.
const (
	// CodeInvalidRequest: malformed JSON, structural mistakes (missing
	// or unknown fields), oversized bodies (400).
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidOptions: well-formed options that fail facade
	// validation — duedate.ErrInvalidOptions (400).
	CodeInvalidOptions = "invalid_options"
	// CodeInvalidSequence: duedate.ErrInvalidSequence (400).
	CodeInvalidSequence = "invalid_sequence"
	// CodeClientGone: the client vanished while the job was queued —
	// context cancellation/expiry surfaced as the solve error (400).
	CodeClientGone = "client_gone"
	// CodeUnsupportedPairing: duedate.ErrUnsupportedPairing (422).
	CodeUnsupportedPairing = "unsupported_pairing"
	// CodeUnknownKind: problem.ErrUnknownKind — a well-formed instance
	// of a kind the service does not know (422).
	CodeUnknownKind = "unknown_kind"
	// CodeInvalidMachines: problem.ErrMachines — an invalid machine
	// count (422).
	CodeInvalidMachines = "invalid_machines"
	// CodeNotFound: unknown path or unknown/evicted job id (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: wrong HTTP method on a known path (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeExactInapplicable: exact.ErrInapplicable — the EXACT-DP layer
	// was asked for an instance outside its provable domain (422).
	CodeExactInapplicable = "exact_inapplicable"
	// CodeExactBudget: exact.ErrTooLarge — the instance exceeds the
	// exact layer's enumeration limit or DP state budget (422).
	CodeExactBudget = "exact_budget"
	// CodeQueueFull: admission control turned the request away because
	// the pool queue is saturated (429, with Retry-After).
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down (503, with Retry-After).
	CodeDraining = "draining"
	// CodeInternal: a genuine internal failure (500).
	CodeInternal = "internal"
)

// sentinelCodes is THE sentinel→(status, code) table: every error a
// solve can return is mapped here (first match wins), and everything
// unmatched is an internal 500. Caller mistakes keep their PR 3 sentinel
// identity instead of collapsing into opaque 500s; context errors
// surface only for clients that vanished while queued, and 400 keeps
// them out of the 5xx alerting bucket.
var sentinelCodes = []struct {
	err    error
	status int
	code   string
}{
	{duedate.ErrUnsupportedPairing, http.StatusUnprocessableEntity, CodeUnsupportedPairing},
	{problem.ErrUnknownKind, http.StatusUnprocessableEntity, CodeUnknownKind},
	{problem.ErrMachines, http.StatusUnprocessableEntity, CodeInvalidMachines},
	{exact.ErrInapplicable, http.StatusUnprocessableEntity, CodeExactInapplicable},
	{exact.ErrTooLarge, http.StatusUnprocessableEntity, CodeExactBudget},
	{duedate.ErrInvalidOptions, http.StatusBadRequest, CodeInvalidOptions},
	{duedate.ErrInvalidSequence, http.StatusBadRequest, CodeInvalidSequence},
	{context.Canceled, http.StatusBadRequest, CodeClientGone},
	{context.DeadlineExceeded, http.StatusBadRequest, CodeClientGone},
}

// errorCode maps a solve error onto its HTTP status and stable code via
// the sentinelCodes table.
func errorCode(err error) (int, string) {
	for _, sc := range sentinelCodes {
		if errors.Is(err, sc.err) {
			return sc.status, sc.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// ErrorDetail is the payload of the unified error envelope.
type ErrorDetail struct {
	// Code is the stable machine-readable error code (one of the Code*
	// constants).
	Code string `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
}

// ErrorResponse is the wire form of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	// Error carries the stable code and the description.
	Error ErrorDetail `json:"error"`
}

// Job states as reported by the jobs API. A job is live in JobQueued
// and JobRunning and terminal in the other three; terminal jobs are
// immutable and subject to the store's capacity/TTL retention.
const (
	// JobQueued: admitted, waiting for a pool worker.
	JobQueued = "queued"
	// JobRunning: a pool worker is executing the solve.
	JobRunning = "running"
	// JobDone: the solve completed (possibly interrupted by its own
	// deadline); Result is set.
	JobDone = "done"
	// JobFailed: the solve returned an error; Error is set.
	JobFailed = "failed"
	// JobCancelled: DELETE (or the drain grace) cancelled the job;
	// Result carries the honest best-so-far when the solve had started.
	JobCancelled = "cancelled"
)

// JobView is the wire form of one async job, returned by POST /v1/jobs
// (202), GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, and as the data of
// the terminal "result" SSE event.
type JobView struct {
	// ID is the job id: a monotonic submission counter joined with the
	// instance's canonical-hash prefix (never wall clock, so ids are
	// reproducible across identical daemon lifetimes).
	ID string `json:"id"`
	// State is one of queued|running|done|failed|cancelled.
	State string `json:"state"`
	// InstanceHash, Algorithm, Engine and Seed echo the admitted
	// request, so a poll identifies the job without re-reading the body.
	InstanceHash string            `json:"instanceHash"`
	Algorithm    duedate.Algorithm `json:"algorithm"`
	Engine       duedate.Engine    `json:"engine"`
	Seed         uint64            `json:"seed"`
	// Result is the final SolveResponse once done — bit-identical to a
	// direct /v1/solve of the same request — or the honest best-so-far
	// with interrupted=true on a mid-solve cancellation. Nil while live
	// and on jobs cancelled before a worker picked them up.
	Result *SolveResponse `json:"result,omitempty"`
	// Error is set on failed jobs: the same stable-code envelope payload
	// a synchronous solve would have answered with.
	Error *ErrorDetail `json:"error,omitempty"`
}

// JobSubmitResponse is the wire form of POST /v1/jobs (HTTP 202): the
// job view plus its polling location (also in the Location header).
type JobSubmitResponse struct {
	// Job is the admitted job (state queued, or already done on a result
	// cache hit).
	Job JobView `json:"job"`
	// Location is the polling URL path for this job.
	Location string `json:"location"`
}

// SnapshotEvent is the data payload of one SSE "snapshot" event on
// GET /v1/jobs/{id}/events: the wire form of a core.Snapshot progress
// report (best-so-far genome, exact cost, evaluation count, elapsed
// host time).
type SnapshotEvent struct {
	// BestCost is the exact objective of BestSeq.
	BestCost int64 `json:"bestCost"`
	// BestSeq is the best genome found so far.
	BestSeq []int `json:"bestSeq"`
	// Evaluations counts fitness evaluations across all chains so far.
	Evaluations int64 `json:"evaluations"`
	// ElapsedNs is the host wall time since the solve started.
	ElapsedNs int64 `json:"elapsedNs"`
}

// snapshotEvent translates an engine checkpoint into its wire form.
func snapshotEvent(s core.Snapshot) SnapshotEvent {
	return SnapshotEvent{
		BestCost:    s.BestCost,
		BestSeq:     s.BestSeq,
		Evaluations: s.Evaluations,
		ElapsedNs:   int64(s.Elapsed),
	}
}

// HealthResponse is the wire form of GET /healthz.
type HealthResponse struct {
	// Status is "ok" while serving and "draining" once shutdown began
	// (reported with a 503, so load balancers stop routing here).
	Status string `json:"status"`
	// Pool and QueueDepth echo the configured capacity.
	Pool       int `json:"pool"`
	QueueDepth int `json:"queueDepth"`
}

// ServerStats is the server half of the /metrics payload: admission and
// cache counters since process start.
type ServerStats struct {
	// Requests counts solve jobs admitted to the pool (batch jobs count
	// individually); Completed the subset that finished.
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	// CacheHits and CacheMisses count result-cache lookups; Rejected
	// counts jobs turned away with 429 by queue admission control.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Rejected    int64 `json:"rejected"`
	// Errors counts solves that returned an error (invalid options,
	// unsupported pairings, internal failures).
	Errors int64 `json:"errors"`
	// MeanSolveNs is the mean wall time of completed solves since
	// process start — the base of the Retry-After estimate on 429/503.
	MeanSolveNs int64 `json:"meanSolveNs"`
	// Active is the number of solves executing right now, Queued the
	// number waiting in the admission queue.
	Active int64 `json:"active"`
	Queued int   `json:"queued"`
	// Pool and QueueDepth echo the configured capacity; Draining reports
	// shutdown in progress.
	Pool       int  `json:"pool"`
	QueueDepth int  `json:"queueDepth"`
	Draining   bool `json:"draining"`
	// Uptime is the time since the server was created.
	Uptime time.Duration `json:"uptimeNs"`
}
