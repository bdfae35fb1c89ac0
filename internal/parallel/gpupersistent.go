package parallel

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sa"
)

// PersistentGPUSA is the persistent-kernel variant of GPUSA: instead of
// the paper's four kernel launches per iteration (Figure 10), a single
// launch keeps every thread resident and runs the whole annealing loop —
// perturbation, fitness, acceptance — inside the kernel, with one final
// reduction. This is the classic CUDA optimization for iteration-heavy
// pipelines: it removes the per-iteration launch overhead and the
// device-wide synchronization between kernels at the cost of flexibility
// (no host-side control between iterations).
//
// With the same seed it consumes the per-thread RNG streams in exactly
// the order of the four-kernel pipeline, so its results are bit-identical
// to GPUSA's (TestPersistentMatchesPipelined) while the simulated time
// drops by the saved launch overhead (BenchmarkAblationPersistentKernel).
type PersistentGPUSA struct {
	// Label names the solver in result tables.
	Label string
	// Inst is the instance to optimize (CDD or UCDDCP).
	Inst *problem.Instance
	// SA holds the annealing parameters shared by all threads.
	SA sa.Config
	// Grid and Block default to the paper's 4 × 192.
	Grid, Block int
	// Seed derives all per-thread RNG streams.
	Seed uint64
	// Dev is the device to run on; nil creates a fresh simulated GT 560M.
	Dev *cudasim.Device
	// Budget bounds the run (iteration override and/or deadline; each
	// resident thread checks the deadline once per annealing iteration).
	Budget core.Budget
	// Progress receives only the final snapshot: a persistent kernel has
	// no host control between iterations, which is exactly the
	// flexibility it trades away (see the type comment).
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default). The
	// single launch reports as the "persistent" phase; per-thread
	// counters are folded when each resident thread retires.
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (g *PersistentGPUSA) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "GPU-SA-persistent"
}

// Solve runs the persistent kernel and returns the reduced best solution.
// Cancellation is cooperative inside the kernel: every resident thread
// checks the context once per annealing iteration, breaks out of its loop
// when done, and still publishes its best into the final reduction — so
// an interrupted run returns a valid reduced best with Interrupted set.
func (g *PersistentGPUSA) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = g.Inst
	}
	grid, block, dev, err := gpuSetup(g.Grid, g.Block, g.Dev)
	if err != nil {
		return core.Result{}, err
	}
	cfg := g.SA
	if g.Budget.Iterations > 0 {
		cfg.Iterations = g.Budget.Iterations
	}
	ctx, cancel := g.Budget.Apply(ctx)
	defer cancel()
	n := inst.GenomeLen()
	cfg = cfg.Normalized(n)
	start := time.Now()
	simStart := dev.SimTime()

	pl := newPipeline(dev, inst, grid, block, false, g.Seed)
	N := pl.threads

	col := obs.NewCollector(g.Metrics)
	t0, evalCount := hostT0(col, inst, cfg, g.Seed, N)

	seqBuf := cudasim.NewBufferFrom(dev, pl.randomRows())
	bestCostBuf := cudasim.NewBuffer[int64](dev, N)
	bestSeqBuf := cudasim.NewBuffer[int32](dev, N*n)
	packedBuf := cudasim.NewBufferFrom(dev, []int64{math.MaxInt64})

	// interrupted is shared by the resident threads: once any thread sees
	// the context done, the flag also short-circuits the remaining
	// threads' checks (the simulated threads are cooperative goroutines,
	// so an atomic keeps the -race detector satisfied).
	var interrupted atomic.Bool
	var itersDone atomic.Int64
	kernelCfg := pl.launchCfg("persistent")
	err = gpuPhased(col, dev, obs.PhasePersistent, func() error {
		return dev.Launch(kernelCfg, func(c *cudasim.Ctx) {
			pl.stagePenalties(c)
			tid := c.GlobalThreadID()
			rng := pl.rngs[tid]
			cur := seqBuf.Raw()[tid*n : (tid+1)*n]
			c.ConstInt("d") // due-date read, once per resident thread

			// The candidate row and the perturbed positions live in the
			// thread's registers/local memory.
			cnd := make([]int32, n)
			pos := make([]int, 0, cfg.Pert)

			var cc obs.ChainCounters
			curCost := pl.fitnessStep(c, tid, cur)
			cc.FullEvaluations++
			bestCost := curCost
			copy(bestSeqBuf.Raw()[tid*n:(tid+1)*n], cur)
			c.ChargeGlobal(2*n, true)

			temp := t0
			done := 0
			for it := 0; it < cfg.Iterations; it++ {
				if interrupted.Load() || ctx.Err() != nil {
					interrupted.Store(true)
					col.SetInterruptedAt("kernel-iteration")
					break
				}
				done++
				pos = perturbStep(c, rng, &cfg, it, pos, cur, cnd)
				candCost := pl.fitnessStep(c, tid, cnd)
				cc.FullEvaluations++

				accepted, improved := acceptStep(c, rng, temp, curCost, candCost, bestCost, cur, cnd, bestSeqBuf.Raw()[tid*n:(tid+1)*n])
				if accepted {
					cc.Acceptances++
					curCost = candCost
				}
				if improved {
					cc.Improvements++
					bestCost = candCost
				}
				temp = cfg.Cool(temp)
			}
			itersDone.Add(int64(done))
			col.AddChain(cc)
			bestCostBuf.Store(c, tid, bestCost)
			cudasim.AtomicMinInt64(c, packedBuf, 0, bestCost<<tidBits|int64(tid))
		})
	})
	if err != nil {
		return core.Result{}, err
	}
	evalCount += int64(N) + itersDone.Load()

	bestSeq, bestCost := pl.winner(packedBuf, bestSeqBuf)
	res := core.Result{
		BestSeq:     bestSeq,
		BestCost:    bestCost,
		Iterations:  cfg.Iterations,
		Evaluations: evalCount,
		Elapsed:     time.Since(start),
		SimSeconds:  dev.SimTime() - simStart,
		Interrupted: interrupted.Load(),
	}
	if col.Enabled() {
		res.Metrics = col.Snapshot(evalCount, N, 1, res.Elapsed)
	}
	if g.Progress != nil {
		g.Progress(core.Snapshot{
			BestSeq:     append([]int(nil), res.BestSeq...),
			BestCost:    res.BestCost,
			Evaluations: res.Evaluations,
			Elapsed:     res.Elapsed,
		})
	}
	return res, nil
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (g *PersistentGPUSA) MustSolve() core.Result { return mustSolve(g, g.Inst) }
