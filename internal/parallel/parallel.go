// Package parallel implements the paper's parallelization layer: the
// asynchronous and synchronous multiple-Markov-chain strategies of
// Ferreiro et al. (Section V), the CPU ensemble drivers used as speedup
// baselines, and the four-kernel GPU pipeline of Section VI (fitness,
// perturbation, acceptance, reduction) mapped onto the cudasim device.
//
// Every driver implements core.Solver, so the experiment harness treats
// serial CPU, parallel CPU and simulated-GPU engines uniformly. The GPU
// kernels run the CPU chains' step code (sa.Perturb, sa.Accept,
// sa.Config.Cool and dpso.Move) and add only their device charges, so a
// GPU engine and its CPU ensemble return the same answer for the same
// seed and T₀ (TestCPUAndGPUEnginesAgree). The GPU SA engines ignore
// sa.Config.Schedule and Neighborhood: they always run the paper's
// shuffle perturbation with exponential cooling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/xrand"
)

// Ensemble describes a population of independent chains: the paper's
// grid of 4 blocks × 192 threads = 768 chains.
type Ensemble struct {
	// Chains is the total chain/particle count (threads on the GPU).
	Chains int
	// Seed derives every chain's RNG sub-stream.
	Seed uint64
	// Workers bounds host goroutines for the CPU drivers; 0 means
	// GOMAXPROCS. Serial drivers ignore it.
	Workers int
}

func (e Ensemble) normalized() Ensemble {
	if e.Chains <= 0 {
		e.Chains = 768
	}
	if e.Workers <= 0 {
		e.Workers = runtime.GOMAXPROCS(0)
	}
	return e
}

// runOverWorkers executes fn(chainIndex) for every chain, spreading the
// calls over at most `workers` goroutines when parallelOK, or serially on
// the calling goroutine otherwise. Work is dispatched as contiguous index
// chunks claimed from a shared atomic counter — one rendezvous per chunk
// rather than one unbuffered channel send per chain, which at 768 chains
// per level dominated the scheduling cost of the synchronous driver. The
// chunk size targets several chunks per worker so uneven chain runtimes
// still balance.
func runOverWorkers(chains, workers int, parallelOK bool, fn func(i int)) {
	if !parallelOK || workers <= 1 || chains <= 1 {
		for i := 0; i < chains; i++ {
			fn(i)
		}
		return
	}
	if workers > chains {
		workers = chains
	}
	chunk := chains / (4 * workers)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= chains {
					return
				}
				hi := lo + chunk
				if hi > chains {
					hi = chains
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// AsyncSA is the asynchronous parallel Simulated Annealing of Figure 7:
// Chains independent SA trajectories followed by one reduction. With
// Parallel=false it is the serial CPU baseline executing the identical
// ensemble on one goroutine (identical results, different wall-clock).
type AsyncSA struct {
	// Label names the solver in result tables.
	Label string
	// Inst is the default instance, used when Solve receives nil.
	Inst *problem.Instance
	// SA holds the per-chain annealing parameters.
	SA sa.Config
	// Ens is the ensemble geometry.
	Ens Ensemble
	// Parallel selects the multi-goroutine driver; false runs the same
	// chains serially (the CPU-time baseline).
	Parallel bool
	// Budget bounds the run (iteration override and/or deadline).
	Budget core.Budget
	// Progress receives best-so-far snapshots.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default).
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (a *AsyncSA) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "AsyncSA"
}

// Solve runs every chain to completion over the shared ensemble runtime
// and reduces to the best solution. Results are deterministic for a
// fixed seed regardless of Parallel, because chain i always consumes RNG
// stream i. Each chain scores its neighbours with the full O(n) pass of
// its own core.BatchEvaluator, as every SA engine does; the evaluators
// share one SoA snapshot of the instance per solve.
func (a *AsyncSA) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = a.Inst
	}
	if inst == nil {
		return core.Result{}, errNoInstance
	}
	cfg := a.SA
	if a.Budget.Iterations > 0 {
		cfg.Iterations = a.Budget.Iterations
	}
	ctx, cancel := a.Budget.Apply(ctx)
	defer cancel()
	soa := core.NewSoAInstance(inst)
	return a.Ens.Run(ctx, inst, RunSpec{
		Parallel:   a.Parallel,
		Iterations: cfg.Iterations,
		Progress:   a.Progress,
		Collector:  obs.NewCollector(a.Metrics),
		NewChain: func(i int, rng *xrand.XORWOW) Chain {
			return sa.NewChain(cfg, core.NewBatchEvaluatorSoA(inst, soa), rng)
		},
	})
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (a *AsyncSA) MustSolve() core.Result { return mustSolve(a, a.Inst) }

// SyncSA is the synchronous parallel Simulated Annealing of Figure 8:
// all chains anneal at a common temperature level for a Markov chain of
// length M, then the minimum state is reduced and broadcast as every
// chain's starting state for the next level. The paper found this variant
// converges prematurely, which TestSynchronousDiversityCollapse verifies.
type SyncSA struct {
	Label string
	// Inst is the default instance, used when Solve receives nil.
	Inst *problem.Instance
	SA   sa.Config
	Ens  Ensemble
	// MarkovLen is M, the per-level chain length.
	MarkovLen int
	// Levels is the number of temperature levels t.
	Levels int
	// Parallel selects the multi-goroutine driver.
	Parallel bool
	// Budget bounds the run (level-count override via Iterations is not
	// supported; the deadline applies at level granularity).
	Budget core.Budget
	// Progress receives a snapshot after each level's reduction.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default).
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (s *SyncSA) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "SyncSA"
}

// Solve runs Levels rounds of MarkovLen steps with broadcast reduction in
// between. Cancellation is checked at level granularity: a done context
// skips the remaining levels and reduces over the chains' bests so far.
func (s *SyncSA) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = s.Inst
	}
	ens := s.Ens.normalized()
	markov := s.MarkovLen
	if markov <= 0 {
		markov = 10
	}
	levels := s.Levels
	if levels <= 0 {
		levels = 100
	}
	ctx, cancel := s.Budget.Apply(ctx)
	defer cancel()
	start := time.Now()

	col := obs.NewCollector(s.Metrics)
	soa := core.NewSoAInstance(inst)
	chains := make([]*sa.Chain, ens.Chains)
	phased(col, obs.PhaseT0, func() {
		runOverWorkers(ens.Chains, ens.Workers, s.Parallel, func(i int) {
			chains[i] = sa.NewChain(s.SA, core.NewBatchEvaluatorSoA(inst, soa), xrand.NewStream(ens.Seed, uint64(i)))
		})
	})

	red := newReducer(ens.Chains)
	m := newMeter(s.Progress, start, red)
	bestSeq := make([]int, inst.GenomeLen())
	bestCost := int64(1) << 62
	interrupted := false
	for level := 0; level < levels; level++ {
		if ctx.Err() != nil {
			interrupted = true
			col.SetInterruptedAt("level")
			break
		}
		phased(col, obs.PhaseChain, func() {
			runOverWorkers(ens.Chains, ens.Workers, s.Parallel, func(i int) {
				for m := 0; m < markov; m++ {
					chains[i].Step()
				}
			})
		})
		// Reduce: s_j^min over current states.
		minIdx := 0
		_, minCost := chains[0].Current()
		phased(col, obs.PhaseReduce, func() {
			for i := 1; i < ens.Chains; i++ {
				if _, c := chains[i].Current(); c < minCost {
					minCost, minIdx = c, i
				}
			}
		})
		minSeq, _ := chains[minIdx].Current()
		if minCost < bestCost {
			bestCost = minCost
			copy(bestSeq, minSeq)
			if red.record(minIdx, minSeq, minCost, 0) {
				m.improved()
			}
		}
		// Broadcast as the next level's initial state on all processors.
		seqCopy := append([]int(nil), minSeq...)
		phased(col, obs.PhaseBroadcast, func() {
			runOverWorkers(ens.Chains, ens.Workers, s.Parallel, func(i int) {
				chains[i].SetSolution(seqCopy, minCost)
			})
		})
	}
	// The final global best may be better than the last broadcast — and
	// on an immediately-expired context it is the only valid reduction
	// (every chain holds a valid random initial solution).
	for i, c := range chains {
		if seq, cost := c.Best(); cost < bestCost {
			bestCost = cost
			copy(bestSeq, seq)
			red.record(i, seq, cost, 0)
		}
	}
	res := core.Result{BestSeq: bestSeq, BestCost: bestCost, Iterations: levels * markov, Interrupted: interrupted}
	for _, c := range chains {
		res.Evaluations += c.Evaluations()
		if col.Enabled() {
			col.AddChain(c.Counters())
		}
	}
	res.Elapsed = time.Since(start)
	if col.Enabled() {
		workers := 1
		if s.Parallel {
			workers = ens.Workers
		}
		res.Metrics = col.Snapshot(res.Evaluations, ens.Chains, workers, res.Elapsed)
	}
	m.final(res)
	return res, nil
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (s *SyncSA) MustSolve() core.Result { return mustSolve(s, s.Inst) }

// Diversity returns the mean pairwise Hamming distance of the chains'
// current sequences, a collapse diagnostic used by tests and examples.
func Diversity(seqs [][]int) float64 {
	if len(seqs) < 2 {
		return 0
	}
	total, pairs := 0, 0
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			for p := range seqs[i] {
				if seqs[i][p] != seqs[j][p] {
					total++
				}
			}
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}
