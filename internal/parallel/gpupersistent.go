package parallel

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/xrand"
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
	grid, block := g.Grid, g.Block
	if grid <= 0 {
		grid = 4
	}
	if block <= 0 {
		block = 192
	}
	dev := g.Dev
	if dev == nil {
		dev = cudasim.NewDevice(cudasim.GT560M())
	}
	cfg := g.SA
	if g.Budget.Iterations > 0 {
		cfg.Iterations = g.Budget.Iterations
	}
	ctx, cancel := g.Budget.Apply(ctx)
	defer cancel()
	n := inst.GenomeLen()
	start := time.Now()
	simStart := dev.SimTime()

	pl := newPipeline(dev, inst, grid, block, false, g.Seed)
	if inst.Kind == problem.CDD && !inst.GenomeCoded() {
		// Same delta adoption as the four-kernel pipeline's default mode,
		// so both engines price candidates identically.
		pl.enableDelta()
	}
	N := pl.threads

	full := sa.DefaultConfig()
	if cfg.Iterations <= 0 {
		cfg.Iterations = full.Iterations
	}
	if cfg.Cooling <= 0 || cfg.Cooling >= 1 {
		cfg.Cooling = full.Cooling
	}
	if cfg.Pert <= 0 {
		cfg.Pert = full.Pert
	}
	if cfg.Pert > n {
		cfg.Pert = n
	}
	if cfg.ReselectPeriod <= 0 {
		cfg.ReselectPeriod = full.ReselectPeriod
	}
	if cfg.TempSamples <= 0 {
		cfg.TempSamples = full.TempSamples
	}

	col := obs.NewCollector(g.Metrics)
	var evalCount int64
	t0 := cfg.T0
	if t0 <= 0 {
		phased(col, obs.PhaseT0, func() {
			eval := core.NewEvaluator(inst)
			t0 = core.InitialTemperature(eval, xrand.NewStream(g.Seed, uint64(N)+1), cfg.TempSamples)
		})
		scored := int64(core.TempSampleCount(cfg.TempSamples))
		evalCount += scored
		col.AddFullEvals(scored)
	}

	seqBuf := cudasim.NewBufferFrom(dev, pl.randomRows())
	bestCostBuf := cudasim.NewBuffer[int64](dev, N)
	bestSeqBuf := cudasim.NewBuffer[int32](dev, N*n)
	packedBuf := cudasim.NewBufferFrom(dev, []int64{math.MaxInt64})

	// Per-thread candidate rows live in registers/local memory of the
	// persistent kernel.
	cand := make([][]int32, N)
	positions := make([][]int, N)
	for t := 0; t < N; t++ {
		cand[t] = make([]int32, n)
		positions[t] = make([]int, 0, cfg.Pert)
	}

	// interrupted is shared by the resident threads: once any thread sees
	// the context done, the flag also short-circuits the remaining
	// threads' checks (the simulated threads are cooperative goroutines,
	// so an atomic keeps the -race detector satisfied).
	var interrupted atomic.Bool
	var itersDone atomic.Int64
	kernelCfg := pl.launchCfg("persistent")
	err := gpuPhased(col, dev, obs.PhasePersistent, func() error {
		return dev.Launch(kernelCfg, func(c *cudasim.Ctx) {
			shA, shB := pl.stagePenalties(c)
			tid := c.GlobalThreadID()
			rng := pl.rngs[tid]
			cur := seqBuf.Raw()[tid*n : (tid+1)*n]
			cnd := cand[tid]
			d := c.ConstInt("d")

			evalRow := func(row []int32) int64 {
				c.ChargeGlobal(n, true) // row traffic
				c.ChargeShared(2 * n)
				pArr := pl.loadProcessingTimes(c, tid, row)
				var cost int64
				var ops int
				switch {
				case pl.soa != nil:
					// Genome-coded row: machine-aware scoring through the
					// shared genome core (bit-identical to the four-kernel
					// pipeline's batch path on the same row).
					cost, ops = core.GenomeFitnessArrays(row, pl.soa, pl.comp[tid], pl.aux[tid])
					if pl.inst.Kind == problem.UCDDCP {
						c.ChargeGlobal(2*n, true)
					}
				case pl.inst.Kind == problem.UCDDCP:
					cost, ops = fitnessUCDDCPArrays(row, pArr, pl.mBuf.Raw(), shA, shB, pl.gammaBuf.Raw(), d, pl.comp[tid], pl.aux[tid])
					c.ChargeGlobal(2*n, true)
				default:
					cost, ops = fitnessCDDArrays(row, pArr, shA, shB, d, pl.comp[tid])
				}
				c.ChargeArith(ops)
				return cost
			}

			var dl *cdd.Delta[int32]
			if pl.deltas != nil {
				dl = pl.deltas[tid]
			}
			lg := bits.Len(uint(n))

			var cc obs.ChainCounters
			var curCost int64
			if dl != nil {
				chargeDeltaReset(c, n)
				curCost = dl.Reset(cur)
			} else {
				curCost = evalRow(cur)
			}
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
				// Perturbation (as the perturb kernel).
				copy(cnd, cur)
				c.ChargeGlobal(2*n, true)
				if it%cfg.ReselectPeriod == 0 || len(positions[tid]) == 0 {
					positions[tid] = drawPositions(rng, positions[tid][:0], n, cfg.Pert)
					c.ChargeArith(4 * cfg.Pert)
				}
				pos := positions[tid]
				for i := len(pos) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					a, b := pos[i], pos[j]
					cnd[a], cnd[b] = cnd[b], cnd[a]
				}
				c.ChargeGlobal(2*len(pos), false)
				c.ChargeArith(6 * len(pos))

				// Fitness: incremental over the perturbed positions when the
				// delta path is on, full O(n) pass otherwise.
				var candCost int64
				if dl != nil {
					chargeDeltaPropose(c, len(pos), lg)
					candCost = dl.Propose(cnd, pos)
					cc.DeltaEvaluations++
				} else {
					candCost = evalRow(cnd)
					cc.FullEvaluations++
				}

				// Acceptance (as the accept kernel).
				accept := candCost <= curCost
				if !accept && temp > 0 {
					accept = math.Exp(float64(curCost-candCost)/temp) >= rng.Float64()
				}
				c.ChargeArith(12)
				if accept {
					cc.Acceptances++
					if dl != nil {
						dl.Commit()
						c.ChargeArith(10 * len(pos) * lg)
					}
					copy(cur, cnd)
					curCost = candCost
					c.ChargeGlobal(2*n, true)
					if candCost < bestCost {
						cc.Improvements++
						bestCost = candCost
						copy(bestSeqBuf.Raw()[tid*n:(tid+1)*n], cnd)
						c.ChargeGlobal(2*n, true)
					}
				}
				temp *= cfg.Cooling
				if cfg.TMin > 0 && temp < cfg.TMin {
					temp = cfg.TMin
				}
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
