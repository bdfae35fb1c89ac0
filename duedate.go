// Package duedate is a Go reproduction of "GPGPU-based Parallel
// Algorithms for Scheduling Against Due Date" (Awasthi, Lässig,
// Leuschner, Weise; IPDPSW/PCO 2016): hybrid two-layered solvers for the
// Common Due-Date problem (CDD) and the Unrestricted Common Due-Date
// problem with Controllable Processing Times (UCDDCP).
//
// The two layers are (i) metaheuristics searching the space of job
// sequences — Simulated Annealing and Discrete Particle Swarm
// Optimization, serial or as parallel ensembles — and (ii) exact O(n)
// linear algorithms that optimally time (and, for UCDDCP, compress) any
// fixed sequence. The paper's CUDA implementation is reproduced on a
// simulated GPU device (internal/cudasim) with the same four-kernel
// pipeline: perturbation, fitness, acceptance, reduction.
//
// Quick start:
//
//	in, _ := duedate.NewCDDInstance("mine", p, alpha, beta, d)
//	res, _ := duedate.SolveContext(ctx, in, duedate.Options{})  // GPU-SA defaults
//	sched := res.Schedule(in)                                   // timed schedule
//
// The experiment harness reproducing the paper's Tables II–V and Figures
// 11–17 lives in cmd/experiments; OR-library-style benchmark instances
// come from GenerateCDDBenchmark / GenerateUCDDCPBenchmark.
package duedate

import (
	"repro/internal/core"
	"repro/internal/orlib"
	"repro/internal/problem"
)

// Kind selects the problem: CDD, UCDDCP or EARLYWORK.
type Kind = problem.Kind

// The two problems of the paper, plus the parallel-machine early-work
// generalization.
const (
	CDD    = problem.CDD
	UCDDCP = problem.UCDDCP
	// EARLYWORK maximizes the total early work on m identical parallel
	// machines against a common due date (internally minimized as total
	// late work; see internal/earlywork). Set Instance.Machines to choose
	// the machine count; solutions are delimiter genomes of length
	// Instance.GenomeLen.
	EARLYWORK = problem.EARLYWORK
)

// Job is one job: processing time, minimum processing time, and the
// earliness/tardiness/compression penalty rates.
type Job = problem.Job

// Instance is a problem instance: jobs plus a common due date.
type Instance = problem.Instance

// Schedule is a fully timed (and, for UCDDCP, compressed) solution.
type Schedule = problem.Schedule

// Result is a solver outcome: best sequence, exact cost, and timing.
type Result = core.Result

// MetricsLevel selects how much instrumentation a solve collects (see
// Options.Metrics); the zero value disables collection.
type MetricsLevel = core.MetricsLevel

// The instrumentation levels, lowest to highest.
const (
	// MetricsOff collects nothing; Result.Metrics stays nil.
	MetricsOff = core.MetricsOff
	// MetricsCounters collects per-chain counters and ensemble
	// aggregates.
	MetricsCounters = core.MetricsCounters
	// MetricsKernels additionally times every phase/kernel (host wall
	// clock plus simulated device seconds on the GPU engine).
	MetricsKernels = core.MetricsKernels
)

// Metrics is the instrumentation snapshot attached to Result.Metrics
// when a solve runs with Options.Metrics above MetricsOff.
type Metrics = core.Metrics

// PhaseMetric is one phase's accounting within Metrics.
type PhaseMetric = core.PhaseMetric

// Snapshot is one best-so-far progress report from a running solve.
type Snapshot = core.Snapshot

// ProgressFunc receives best-so-far snapshots during a solve (emitted on
// every ensemble-best improvement plus once before returning).
type ProgressFunc = core.ProgressFunc

// BatchEvaluator scores batches of candidate sequences against one
// instance over a structure-of-arrays snapshot, each row through the
// kind's exact single-row core, so costs are bit-identical to Cost on
// each row. It carries scratch buffers and is not safe for concurrent
// use; create one per goroutine (the SoA snapshot behind it can be
// shared via the internal/core API).
type BatchEvaluator = core.BatchEvaluator

// NewBatchEvaluator snapshots the instance into structure-of-arrays form
// and returns a batch evaluator for it — the zero-alloc way to score
// many candidate sequences (e.g. a population per generation) without
// going through a full Solve.
func NewBatchEvaluator(in *Instance) *BatchEvaluator { return core.NewBatchEvaluator(in) }

// NewCDDInstance builds a validated CDD instance from parallel slices of
// processing times and earliness/tardiness penalties.
func NewCDDInstance(name string, p, alpha, beta []int, d int64) (*Instance, error) {
	return problem.NewCDD(name, p, alpha, beta, d)
}

// NewUCDDCPInstance builds a validated UCDDCP instance; m holds the
// minimum processing times and gamma the compression penalties, and the
// due date must satisfy d ≥ Σp (the unrestricted condition).
func NewUCDDCPInstance(name string, p, m, alpha, beta, gamma []int, d int64) (*Instance, error) {
	return problem.NewUCDDCP(name, p, m, alpha, beta, gamma, d)
}

// NewEarlyWorkInstance builds a validated m-machine early-work instance
// from processing times and a common due date.
func NewEarlyWorkInstance(name string, p []int, machines int, d int64) (*Instance, error) {
	return problem.NewEarlyWork(name, p, machines, d)
}

// PaperExample returns the worked 5-job example of the paper's Table I
// (optimal penalty 81 for CDD with d = 16, and 77 for UCDDCP with d = 22,
// both under the identity sequence).
func PaperExample(kind Kind) *Instance { return problem.PaperExample(kind) }

// GenerateCDDBenchmark deterministically generates the OR-library-style
// CDD benchmark for one job size: `records` records × the four
// restrictive due-date factors h ∈ {0.2, 0.4, 0.6, 0.8}. The paper's
// configuration is records = 10 (40 instances per size).
func GenerateCDDBenchmark(size, records int, seed uint64) ([]*Instance, error) {
	return orlib.BenchmarkCDD(size, records, seed)
}

// GenerateUCDDCPBenchmark generates the controllable benchmark for one
// job size (`records` unrestricted instances).
func GenerateUCDDCPBenchmark(size, records int, seed uint64) ([]*Instance, error) {
	return orlib.BenchmarkUCDDCP(size, records, seed)
}

// GenerateEarlyWorkBenchmark generates the parallel-machine early-work
// benchmark for one job size and machine count: `records` records × the
// four restrictive h factors, with the per-machine due date
// d = max(1, ⌊h·Σp/m⌋).
func GenerateEarlyWorkBenchmark(size, machines, records int, seed uint64) ([]*Instance, error) {
	return orlib.BenchmarkEarlyWork(size, machines, records, seed)
}
