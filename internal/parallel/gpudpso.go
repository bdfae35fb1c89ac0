package parallel

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/dpso"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/problem"
)

// GPUDPSO is the paper's GPU implementation of the Discrete PSO: one
// particle per simulated CUDA thread, with the same kernel pipeline
// structure as the SA version —
//
//	update     velocity swap + cognition/social crossovers (Equation 3)
//	fitness    the O(n) linear algorithm on the new positions
//	pbest      personal-best refresh (the acceptance analogue)
//	reduce     packed atomic-min over personal bests
//	broadcast  (ShareSwarmBest only) the winner publishes its pbest
//
// The paper parallelizes DPSO "in the asynchronous manner, as explained
// for SA" — i.e. the threads run without communicating, so each
// particle's view of the swarm best g(t) in Equation (3) degenerates to
// its own personal best; the reduction kernel only tracks the global
// minimum for reporting. That is the default here, and it reproduces the
// paper's central DPSO finding (quality collapses as n grows because the
// social component carries no cross-thread information). Setting
// ShareSwarmBest broadcasts the true reduced swarm best back to all
// particles each generation — the ablation showing how much of the
// paper's DPSO deficit is caused by the asynchronous design.
type GPUDPSO struct {
	// Label names the solver in result tables.
	Label string
	// Inst is the instance to optimize (CDD or UCDDCP).
	Inst *problem.Instance
	// PSO holds the particle parameters; Swarm is ignored (the launch
	// geometry is the swarm).
	PSO dpso.Config
	// Grid and Block default to the paper's 4 × 192.
	Grid, Block int
	// Seed derives all per-thread RNG streams.
	Seed uint64
	// Dev is the device to run on; nil creates a fresh simulated GT 560M.
	Dev *cudasim.Device
	// Cooperative selects barrier-backed shared-memory staging.
	Cooperative bool
	// ShareSwarmBest broadcasts the reduced swarm best to every particle
	// each generation instead of the paper's communication-free
	// asynchronous scheme.
	ShareSwarmBest bool
	// PTimeAccess selects the processing-time read mode of the fitness
	// kernel (see PAccess).
	PTimeAccess PAccess
	// Budget bounds the run (generation override and/or deadline; the
	// deadline applies at host-generation granularity).
	Budget core.Budget
	// Progress receives a snapshot after every reduction kernel. Each
	// snapshot costs a device→host copy of the winning sequence, so leave
	// it nil for timing runs.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default). At
	// MetricsKernels every launch is bracketed with device events, so the
	// per-phase metrics carry simulated seconds alongside host wall time.
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (g *GPUDPSO) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "GPU-DPSO"
}

// Solve runs the full pipeline and returns the reduced best solution.
// Cancellation is checked once per host generation: a done context skips
// the remaining generations and returns the reduced swarm best so far
// with Interrupted set (valid from generation zero, because the init
// kernel folds every particle's initial cost into the reduction).
func (g *GPUDPSO) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = g.Inst
	}
	grid, block, dev, err := gpuSetup(g.Grid, g.Block, g.Dev)
	if err != nil {
		return core.Result{}, err
	}
	cfg := g.PSO.Normalized()
	if g.Budget.Iterations > 0 {
		cfg.Iterations = g.Budget.Iterations
	}
	ctx, cancel := g.Budget.Apply(ctx)
	defer cancel()
	n := inst.GenomeLen()
	start := time.Now()
	simStart := dev.SimTime()

	pl := newPipeline(dev, inst, grid, block, g.Cooperative, g.Seed)
	pl.setPAccess(g.PTimeAccess)
	N := pl.threads

	// Device state: positions, personal bests, swarm best, costs.
	posBuf := cudasim.NewBufferFrom(dev, pl.randomRows())
	costBuf := cudasim.NewBuffer[int64](dev, N)
	pbestBuf := cudasim.NewBuffer[int32](dev, N*n)
	pbestCostBuf := cudasim.NewBuffer[int64](dev, N)
	gbestBuf := cudasim.NewBuffer[int32](dev, n)
	packedBuf := cudasim.NewBufferFrom(dev, []int64{math.MaxInt64})

	// Per-thread local memory of the update kernel: the order
	// crossovers' used-markers and one scratch row.
	ops := make([]*perm.Ops, N)
	for t := range ops {
		ops[t] = perm.NewOps(n)
	}
	scratch := make([]int32, N*n)

	col := obs.NewCollector(g.Metrics)
	var evalCount int64
	// Initial fitness; personal bests = initial positions.
	if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
		return pl.fitnessKernel(posBuf, costBuf)
	}); err != nil {
		return core.Result{}, err
	}
	evalCount += int64(N)
	col.AddFullEvals(int64(N))
	if err := gpuPhased(col, dev, obs.PhaseInit, func() error {
		return dev.Launch(pl.launchCfg("init"), func(c *cudasim.Ctx) {
			tid := c.GlobalThreadID()
			v := costBuf.Load(c, tid)
			pbestCostBuf.Store(c, tid, v)
			copy(pbestBuf.Raw()[tid*n:(tid+1)*n], posBuf.Raw()[tid*n:(tid+1)*n])
			c.ChargeGlobal(2*n, true)
			cudasim.AtomicMinInt64(c, packedBuf, 0, v<<tidBits|int64(tid))
		})
	}); err != nil {
		return core.Result{}, err
	}
	broadcast := func() error {
		if !g.ShareSwarmBest {
			return nil
		}
		return gpuPhased(col, dev, obs.PhaseBroadcast, func() error {
			return dev.Launch(pl.launchCfg("broadcast"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				winner := int(cudasim.AtomicLoadInt64(c, packedBuf, 0) & (1<<tidBits - 1))
				if tid == winner {
					copy(gbestBuf.Raw(), pbestBuf.Raw()[tid*n:(tid+1)*n])
					c.ChargeGlobal(2*n, true)
				}
			})
		})
	}
	if err := broadcast(); err != nil {
		return core.Result{}, err
	}

	interrupted := false
	for it := 0; it < cfg.Iterations; it++ {
		if ctx.Err() != nil {
			interrupted = true
			col.SetInterruptedAt("iteration")
			break
		}
		// Kernel 1: position update per Equation (3). Reads the swarm
		// best published by the previous broadcast (asynchronous: all
		// particles see the same, possibly one-generation-old gbest).
		if err := gpuPhased(col, dev, obs.PhaseUpdate, func() error {
			return dev.Launch(pl.launchCfg("update"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				pos := posBuf.Raw()[tid*n : (tid+1)*n]
				pbest := pbestBuf.Raw()[tid*n : (tid+1)*n]
				// Asynchronous (paper) mode: no cross-thread state — g(t)
				// collapses to the particle's own best.
				gbest := pbest
				if g.ShareSwarmBest {
					gbest = gbestBuf.Raw()
				}
				c.ChargeGlobal(3*n, true)
				dpso.Move(cfg, pl.rngs[tid], ops[tid], pos, pbest, gbest, scratch[tid*n:(tid+1)*n])
				c.ChargeGlobal(n, true)
				// Each order crossover is ~3 passes over the sequence (copy
				// the donor segment, scan the other parent, maintain the
				// used-markers in local memory), plus the swap and the final
				// write-back — far heavier than SA's Pert-element
				// shuffle, which is why the paper's Figures 14/16 show DPSO
				// consistently slower than SA at equal budgets.
				c.ChargeArith(20 * n)
			})
		}); err != nil {
			return core.Result{}, err
		}

		// Kernel 2: fitness of the new positions.
		if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
			return pl.fitnessKernel(posBuf, costBuf)
		}); err != nil {
			return core.Result{}, err
		}
		evalCount += int64(N)
		col.AddFullEvals(int64(N))

		// Kernel 3: personal-best refresh (the acceptance analogue; every
		// refresh also improves the particle's best-so-far).
		if err := gpuPhased(col, dev, obs.PhasePBest, func() error {
			return dev.Launch(pl.launchCfg("pbest"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				v := costBuf.Load(c, tid)
				if v < pbestCostBuf.Load(c, tid) {
					col.AddAccepts(1)
					col.AddImprovements(1)
					pbestCostBuf.Store(c, tid, v)
					copy(pbestBuf.Raw()[tid*n:(tid+1)*n], posBuf.Raw()[tid*n:(tid+1)*n])
					c.ChargeGlobal(2*n, true)
				}
			})
		}); err != nil {
			return core.Result{}, err
		}

		// Kernel 4: reduction, then gbest broadcast.
		if err := gpuPhased(col, dev, obs.PhaseReduce, func() error {
			return pl.reduceKernel(pbestCostBuf, packedBuf)
		}); err != nil {
			return core.Result{}, err
		}
		if err := broadcast(); err != nil {
			return core.Result{}, err
		}
		if g.Progress != nil {
			seq, cost := pl.winner(packedBuf, pbestBuf)
			g.Progress(core.Snapshot{BestSeq: seq, BestCost: cost, Evaluations: evalCount, Elapsed: time.Since(start)})
		}
		dev.Synchronize()
	}

	// The init kernel already folded every particle's initial cost into
	// packedBuf, so the reduction is valid even on a zero-generation run.
	bestSeq, bestCost := pl.winner(packedBuf, pbestBuf)
	res := core.Result{
		BestSeq:     bestSeq,
		BestCost:    bestCost,
		Iterations:  cfg.Iterations,
		Evaluations: evalCount,
		Elapsed:     time.Since(start),
		SimSeconds:  dev.SimTime() - simStart,
		Interrupted: interrupted,
	}
	if col.Enabled() {
		res.Metrics = col.Snapshot(evalCount, N, 1, res.Elapsed)
	}
	return res, nil
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (g *GPUDPSO) MustSolve() core.Result { return mustSolve(g, g.Inst) }
