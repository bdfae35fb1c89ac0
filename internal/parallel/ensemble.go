package parallel

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// Chain is one independent trajectory of the asynchronous ensemble
// scheme: the common surface of sa.Chain, ta.Chain, es.Strategy and a
// solo DPSO particle. A chain owns all its scratch state, so distinct
// chains may run concurrently.
type Chain interface {
	// Run executes the chain's full iteration budget and returns its
	// best cost.
	Run() int64
	// Best returns the best sequence seen (borrowed) and its cost.
	Best() ([]int, int64)
	// Evaluations returns the number of fitness evaluations performed.
	Evaluations() int64
}

// errNoInstance reports a CPU solve given no instance.
var errNoInstance = errors.New("parallel: ensemble run without an instance")

// RunSpec parameterizes one execution of the shared ensemble runtime.
type RunSpec struct {
	// Parallel selects the multi-goroutine dispatcher; false runs the
	// identical ensemble serially on the calling goroutine.
	Parallel bool
	// Iterations is reported as Result.Iterations (the per-chain budget;
	// the chains themselves own the actual loop).
	Iterations int
	// Progress, when non-nil, receives a snapshot whenever the ensemble
	// best improves and once more before Run returns.
	Progress core.ProgressFunc
	// NewChain builds chain i over its dedicated RNG stream. It is
	// called on the worker goroutine that runs the chain, so per-chain
	// state (evaluators, scratch) needs no synchronization.
	NewChain func(i int, rng *xrand.XORWOW) Chain
	// Collector receives the run's metrics; nil (the default) disables
	// collection entirely.
	Collector *obs.Collector
}

// Run is the shared ensemble runtime behind every CPU driver: it
// dispatches one chain per ensemble member over the worker pool, derives
// the per-chain RNG streams, folds the results through the lock-free
// best reduction and accounts evaluations. Results are deterministic for
// a fixed seed regardless of Parallel, because chain i always consumes
// RNG stream i and ties reduce to the lowest chain index.
//
// Cancellation is cooperative at chain granularity: once ctx is done, no
// new chain starts (chains already running finish) and the result
// carries Interrupted with the best over all completed chains. If ctx
// expires before any chain completes, the identity sequence is evaluated
// once so the result still holds a valid permutation with its exact
// cost.
func (e Ensemble) Run(ctx context.Context, inst *problem.Instance, spec RunSpec) (core.Result, error) {
	if inst == nil {
		return core.Result{}, errNoInstance
	}
	ens := e.normalized()
	if err := CheckChains(ens.Chains, 1); err != nil {
		return core.Result{}, err
	}
	start := time.Now()
	red := newReducer(ens.Chains)
	m := newMeter(spec.Progress, start, red)
	col := spec.Collector
	var skipped atomic.Bool
	runOverWorkers(ens.Chains, ens.Workers, spec.Parallel, func(i int) {
		if ctx.Err() != nil {
			skipped.Store(true)
			col.SetInterruptedAt("chain")
			return
		}
		// Per-phase timing is gated on the kernels level; the counters
		// level pays two timestamps per chain (for the busy-time
		// aggregate) plus atomic increments. Chain construction (which
		// includes the T₀ estimation) and the iteration loop are the
		// CPU engines' two phases.
		var t0, t1 time.Time
		if col.Enabled() {
			t0 = time.Now()
		}
		chain := spec.NewChain(i, xrand.NewStream(ens.Seed, uint64(i)))
		if col.Kernels() {
			t1 = time.Now()
			col.Phase(obs.PhaseT0, t1.Sub(t0), 0)
		} else {
			col.CountPhase(obs.PhaseT0)
		}
		chain.Run()
		if col.Enabled() {
			done := time.Now()
			if col.Kernels() {
				col.Phase(obs.PhaseChain, done.Sub(t1), 0)
			} else {
				col.CountPhase(obs.PhaseChain)
			}
			col.AddBusy(done.Sub(t0))
			if src, ok := chain.(obs.CounterSource); ok {
				col.AddChain(src.Counters())
			}
		}
		seq, cost := chain.Best()
		if red.record(i, seq, cost, chain.Evaluations()) {
			m.improved()
		}
	})
	var tr time.Time
	if col.Kernels() {
		tr = time.Now()
	}
	res := red.result(inst)
	res.Iterations = spec.Iterations
	res.Interrupted = skipped.Load()
	res.Elapsed = time.Since(start)
	if col.Enabled() {
		if col.Kernels() {
			col.Phase(obs.PhaseReduce, time.Since(tr), 0)
		} else {
			col.CountPhase(obs.PhaseReduce)
		}
		workers := 1
		if spec.Parallel {
			workers = ens.Workers
		}
		res.Metrics = col.Snapshot(res.Evaluations, ens.Chains, workers, res.Elapsed)
	}
	m.final(res)
	return res, nil
}

// reducer is the engines' lock-free best reduction: the same packed
// (cost<<tidBits | chain) atomic minimum the GPU reduce kernel computes,
// applied host-side, plus the per-chain best rows and the evaluation
// account. Chain i writes seqs[i] before publishing its packed value, so
// a reader that observes the packed minimum may read the winning row
// without further synchronization. A chain may record again (ParallelDPSO
// folds every personal best each generation) only where no reader runs
// concurrently.
type reducer struct {
	packed atomic.Int64
	evals  atomic.Int64
	seqs   [][]int
}

func newReducer(chains int) *reducer {
	r := &reducer{seqs: make([][]int, chains)}
	r.packed.Store(math.MaxInt64)
	return r
}

// record folds chain i's best into the reduction and returns whether it
// improved the ensemble best. The sequence is copied when it might win.
func (r *reducer) record(chain int, seq []int, cost int64, evals int64) bool {
	r.evals.Add(evals)
	packed := cost<<tidBits | int64(chain)
	if packed >= r.packed.Load() {
		return false
	}
	r.seqs[chain] = append(r.seqs[chain][:0], seq...)
	for {
		cur := r.packed.Load()
		if packed >= cur {
			return false
		}
		if r.packed.CompareAndSwap(cur, packed) {
			return true
		}
	}
}

// best returns the current winner, or ok=false when nothing has been
// recorded yet.
func (r *reducer) best() (seq []int, cost int64, ok bool) {
	p := r.packed.Load()
	if p == math.MaxInt64 {
		return nil, 0, false
	}
	return r.seqs[p&(1<<tidBits-1)], p >> tidBits, true
}

// result assembles the reduced outcome. When no chain completed (a
// context that expired before the first chain boundary), it evaluates
// the identity sequence once so callers always receive a valid
// permutation with its exact cost.
func (r *reducer) result(inst *problem.Instance) core.Result {
	seq, cost, ok := r.best()
	if !ok {
		seq = problem.IdentitySequence(inst.GenomeLen())
		cost = core.NewEvaluator(inst).Cost(seq)
		r.evals.Add(1)
	}
	return core.Result{
		BestSeq:     append([]int(nil), seq...),
		BestCost:    cost,
		Evaluations: r.evals.Load(),
	}
}

// meter serializes progress callbacks. A nil meter (no Progress
// configured) is inert, so the hot path pays only a nil check.
type meter struct {
	mu    sync.Mutex
	fn    core.ProgressFunc
	start time.Time
	red   *reducer
}

func newMeter(fn core.ProgressFunc, start time.Time, red *reducer) *meter {
	if fn == nil {
		return nil
	}
	return &meter{fn: fn, start: start, red: red}
}

// improved emits a snapshot of the current ensemble best.
func (m *meter) improved() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	seq, cost, ok := m.red.best()
	if !ok {
		return
	}
	m.fn(core.Snapshot{
		BestSeq:     append([]int(nil), seq...),
		BestCost:    cost,
		Evaluations: m.red.evals.Load(),
		Elapsed:     time.Since(m.start),
	})
}

// final emits the closing snapshot from the assembled result.
func (m *meter) final(res core.Result) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fn(core.Snapshot{
		BestSeq:     append([]int(nil), res.BestSeq...),
		BestCost:    res.BestCost,
		Evaluations: res.Evaluations,
		Elapsed:     res.Elapsed,
	})
}

// ChainEnsemble is the generic asynchronous driver over the shared
// runtime: any chain factory, one chain per ensemble member, best-of
// reduction. The TA and ES baseline families register into the facade
// through it, and new chain-shaped metaheuristics need only a factory —
// no driver code.
type ChainEnsemble struct {
	// Label names the solver in result tables.
	Label string
	// Inst is the default instance, used when Solve receives nil.
	Inst *problem.Instance
	// Ens is the ensemble geometry.
	Ens Ensemble
	// Parallel selects the multi-goroutine dispatcher.
	Parallel bool
	// Iterations is the per-chain budget reported in results (the
	// factory's chain config owns the actual loop; Budget.Iterations
	// does not reach inside the factory).
	Iterations int
	// Budget bounds the run (deadline only; see Iterations).
	Budget core.Budget
	// Progress receives best-so-far snapshots.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default).
	Metrics core.MetricsLevel
	// NewChain builds chain i for the instance over its RNG stream.
	NewChain func(inst *problem.Instance, chain int, rng *xrand.XORWOW) Chain
}

// Name implements core.Solver.
func (c *ChainEnsemble) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "ChainEnsemble"
}

// Solve implements core.Solver.
func (c *ChainEnsemble) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = c.Inst
	}
	ctx, cancel := c.Budget.Apply(ctx)
	defer cancel()
	return c.Ens.Run(ctx, inst, RunSpec{
		Parallel:   c.Parallel,
		Iterations: c.Iterations,
		Progress:   c.Progress,
		Collector:  obs.NewCollector(c.Metrics),
		NewChain: func(i int, rng *xrand.XORWOW) Chain {
			return c.NewChain(inst, i, rng)
		},
	})
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (c *ChainEnsemble) MustSolve() core.Result { return mustSolve(c, c.Inst) }

// mustSolve backs the drivers' MustSolve convenience methods.
func mustSolve(s core.Solver, inst *problem.Instance) core.Result {
	res, err := s.Solve(context.Background(), inst)
	if err != nil {
		panic(err)
	}
	return res
}
