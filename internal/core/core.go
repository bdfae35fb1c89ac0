// Package core ties the two layers of the paper's approach together: it
// dispatches the exact O(n) per-sequence optimizers (layer two) behind a
// single Evaluator interface that every metaheuristic (layer one) consumes,
// and it provides the shared solver vocabulary — results, initial
// temperature estimation, and random-restart utilities.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cdd"
	"repro/internal/perm"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// Evaluator computes the exact optimal penalty of a job sequence for one
// instance: the CDD or UCDDCP linear algorithm of Section IV. Evaluators
// carry scratch state and are not safe for concurrent use; create one per
// chain/thread with NewEvaluator.
type Evaluator interface {
	// Cost returns the minimal total penalty achievable by the sequence.
	Cost(seq []int) int64
	// Instance returns the instance being optimized.
	Instance() *problem.Instance
}

// NewEvaluator returns the exact evaluator for the instance: a
// BatchEvaluator, whose Cost scores the sequence with the kind's
// single-machine linear algorithm, or the delimiter genome machine by
// machine on parallel-machine and early-work instances.
func NewEvaluator(in *problem.Instance) Evaluator {
	return NewBatchEvaluator(in)
}

// DeltaEvaluator extends Evaluator with the incremental propose/commit
// protocol of the hot path. A metaheuristic caches its current sequence
// with Reset, prices each neighbour with Propose — passing the positions
// its move operator touched, in O(k + log n·log k) for CDD instead of the
// O(n) full pass — and calls Commit exactly when a proposal is accepted.
// Rejected proposals need no bookkeeping; a new Propose simply replaces
// the pending one. Propose costs are bit-identical to Cost on the same
// candidate. No engine drives this protocol: a cheaper Propose is not a
// cheaper search step (Commit can rebuild in O(n)), and the paper's
// fitness kernel is the full O(n) pass, so every metaheuristic scores
// with NewEvaluator. The protocol remains for the verify oracle chain,
// the evaluator benchmarks and the benchmark module's per-layer probes.
//
// Cost remains a stateless full evaluation and never disturbs the cache.
// Implementations are not safe for concurrent use.
type DeltaEvaluator interface {
	Evaluator
	// Reset caches seq as the committed base sequence and returns its cost.
	Reset(seq []int) int64
	// Propose evaluates a candidate that equals the base sequence
	// everywhere except (a subset of) the given positions, without
	// mutating the cache. Order, duplicates and untouched entries in
	// positions are all tolerated.
	Propose(cand []int, positions []int) int64
	// Commit adopts the pending candidate as the new base sequence.
	Commit()
}

// NewDeltaEvaluator returns the incremental evaluator for the instance:
// the windowed cdd.DeltaEvaluator for single-machine CDD, or the
// machine-granular MachineDeltaEvaluator otherwise (on single-machine
// UCDDCP its one segment is the whole sequence, so Propose is one
// ucddcp.OptimizeArrays pass).
func NewDeltaEvaluator(in *problem.Instance) DeltaEvaluator {
	if in.GenomeCoded() || in.Kind == problem.UCDDCP {
		return NewMachineDeltaEvaluator(in)
	}
	return cdd.NewDeltaEvaluator(in)
}

// Result is the outcome of one solver run.
type Result struct {
	// BestSeq is the best job sequence found (owned by the result).
	BestSeq []int
	// BestCost is its exact penalty under the instance's objective.
	BestCost int64
	// Iterations is the number of metaheuristic iterations executed.
	Iterations int
	// Evaluations counts fitness-function invocations across all chains.
	Evaluations int64
	// Elapsed is the host wall-clock duration of the run.
	Elapsed time.Duration
	// SimSeconds is the simulated GPU time for device-backed engines
	// (zero for CPU engines).
	SimSeconds float64
	// Interrupted reports that the run was cut short by context
	// cancellation or an expired deadline. BestSeq/BestCost still hold
	// the best solution found before the interruption (engines guarantee
	// a valid permutation even when cancelled before the first chain
	// completes).
	Interrupted bool
	// Optimal reports that BestCost is a proven global optimum — an
	// optimality certificate. Only exact solvers set it (the EXACT-DP
	// driver, after its self-check against the O(n) evaluator);
	// metaheuristics leave it false even when they happen to reach the
	// optimum, because they cannot prove it.
	Optimal bool
	// Metrics holds the run's instrumentation snapshot when the solver
	// was configured with a MetricsLevel above MetricsOff; nil otherwise
	// (the default — collection is opt-in).
	Metrics *Metrics
}

// Schedule materializes the result's genome into a fully timed schedule:
// machine assignment and per-machine starts on parallel-machine
// instances, compressions for UCDDCP, and the plain optimally timed
// sequence on the single-machine paper problems.
func (r *Result) Schedule(in *problem.Instance) problem.Schedule {
	return GenomeSchedule(in, r.BestSeq)
}

// Budget bounds a solver run beyond the algorithm's own configuration.
// The zero value imposes no bound.
type Budget struct {
	// Iterations, when positive, overrides the algorithm config's
	// per-chain iteration count.
	Iterations int
	// Deadline, when nonzero, is the wall-clock cutoff: the engine stops
	// at its next chain/level/iteration boundary past the deadline and
	// returns the best-so-far with Result.Interrupted set.
	Deadline time.Time
}

// Apply derives a context honoring the budget's deadline. The returned
// cancel func must always be called (it is a no-op when no deadline is
// set).
func (b Budget) Apply(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, b.Deadline)
}

// Snapshot is one progress report from a running solver: the best
// solution found so far with its accounting. The sequence is a copy
// owned by the receiver.
type Snapshot struct {
	BestSeq     []int
	BestCost    int64
	Evaluations int64
	Elapsed     time.Duration
}

// ProgressFunc receives periodic best-so-far snapshots during a solve.
// Engines emit one whenever the ensemble best improves (serialized — the
// callback never runs concurrently with itself) and a final snapshot
// before returning. Callbacks must be fast; they run on the solve path.
type ProgressFunc func(Snapshot)

// Solver is a runnable optimizer configuration: the engine-layer
// contract every driver (CPU serial/parallel ensembles, the four-kernel
// GPU pipeline, the persistent kernel, the TA/ES baselines) implements.
type Solver interface {
	// Name identifies the solver in experiment tables ("SA_1000", …).
	Name() string
	// Solve runs the optimization once on inst and returns its result.
	// Cancellation is cooperative: engines check ctx at chain, level or
	// kernel-iteration boundaries and return the best-so-far with
	// Result.Interrupted set instead of an error. A fixed seed yields
	// bit-identical results whenever ctx never expires.
	Solve(ctx context.Context, inst *problem.Instance) (Result, error)
}

// InitialTemperature estimates T₀ as the standard deviation of the
// fitness values of `samples` uniformly random job sequences, the rule of
// Salamon, Sibani and Frost adopted by the paper (with samples = 5000).
// It is deterministic given the rng. The scoring runs on the batch
// evaluation core (each sample is the previous one reshuffled in place,
// so samples chain and cannot be scored as one flat batch); costs are
// bit-identical to eval.Cost, and the float accumulation order is
// unchanged, so T₀ is too. It scores TempSampleCount(samples)
// sequences; callers that count evaluations add that number.
func InitialTemperature(eval Evaluator, rng *xrand.XORWOW, samples int) float64 {
	samples = TempSampleCount(samples)
	be := BatchEvaluatorFor(eval)
	n := eval.Instance().GenomeLen()
	seq := problem.IdentitySequence(n)
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		perm.FisherYates(rng, seq)
		f := float64(be.Cost(seq))
		sum += f
		sumSq += f * f
	}
	mean := sum / float64(samples)
	variance := sumSq/float64(samples) - mean*mean
	if variance < 0 {
		variance = 0
	}
	sd := math.Sqrt(variance)
	if sd <= 0 {
		// Degenerate landscape (all sequences equal): any positive
		// temperature works; pick 1 so exp((E−E')/T) stays defined.
		sd = 1
	}
	return sd
}

// TempSampleCount is the number of sequences InitialTemperature scores
// when asked for samples: at least two, so the spread is defined.
func TempSampleCount(samples int) int { return max(samples, 2) }

// RandomSolution evaluates one uniformly random sequence; solvers use it
// for initialization and tests for baselines.
func RandomSolution(eval Evaluator, rng *xrand.XORWOW) ([]int, int64) {
	seq := perm.Random(rng, eval.Instance().GenomeLen())
	return seq, eval.Cost(seq)
}

// BestOf runs every solver on the instance and returns the index and
// result of the best (lowest-cost) one; it is the reduce step over
// heterogeneous engines. A cancelled context stops the remaining solvers
// at their own chain/level boundaries; results collected so far still
// reduce.
func BestOf(ctx context.Context, inst *problem.Instance, solvers ...Solver) (int, Result, error) {
	if len(solvers) == 0 {
		return 0, Result{}, fmt.Errorf("core: BestOf with no solvers")
	}
	bestIdx := -1
	var best Result
	for i, s := range solvers {
		r, err := s.Solve(ctx, inst)
		if err != nil {
			return 0, Result{}, fmt.Errorf("core: %s: %w", s.Name(), err)
		}
		if bestIdx < 0 || r.BestCost < best.BestCost {
			bestIdx, best = i, r
		}
	}
	return bestIdx, best, nil
}

// PercentDeviation returns 100·(z−zBest)/zBest, the %Δ metric of the
// paper's result tables. A zero zBest with nonzero z yields +Inf; both
// zero yields 0.
func PercentDeviation(z, zBest int64) float64 {
	if zBest == 0 {
		if z == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(z-zBest) / float64(zBest) * 100
}
