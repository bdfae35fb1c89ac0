package parallel

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/xrand"
)

// tidBits is the width of the thread-index field in the packed
// (cost<<tidBits | tid) reduction values. The cost takes the bits above
// it: problem.Instance.Validate rejects every instance whose objective
// can reach problem.CostLimit, and CheckChains every run of MaxChains or
// more chains.
const tidBits = 20

// The packed word must hold every admissible cost above the thread
// index without reaching the sign bit; the constant overflows uint (a
// compile error) otherwise.
const _ uint = 63 - tidBits - problem.CostBits

// MaxChains bounds the chain (thread) count of every engine: the packed
// reduction word indexes chains in tidBits bits.
const MaxChains = 1 << tidBits

// CheckChains rejects a run of grid·block chains that the packed
// reduction word cannot index. Each factor is checked on its own first,
// so the product cannot overflow.
func CheckChains(grid, block int) error {
	if grid >= MaxChains || block >= MaxChains || grid*block >= MaxChains {
		return fmt.Errorf("parallel: %d×%d chains reach the %d-chain reduction limit", grid, block, MaxChains)
	}
	return nil
}

// GPUSA is the paper's GPU implementation of asynchronous parallel
// Simulated Annealing (Section VI): one SA chain per simulated CUDA
// thread, driven by four kernels per iteration —
//
//	perturb   Fisher–Yates partial shuffle of each thread's sequence
//	fitness   the O(n) linear algorithm, penalties staged in shared memory
//	accept    metropolis criterion, per-thread best tracking
//	reduce    atomic-min over the ensemble (every ReduceEvery iterations)
//
// — with job data copied host→device up front and only the winning
// sequence copied back at the end (Figure 9).
type GPUSA struct {
	// Label names the solver in result tables.
	Label string
	// Inst is the instance to optimize (CDD or UCDDCP).
	Inst *problem.Instance
	// SA holds the annealing parameters shared by all threads.
	SA sa.Config
	// Grid and Block are the launch geometry; the paper's configuration
	// is 4 blocks of 192 threads (defaults when zero).
	Grid, Block int
	// Seed derives all per-thread RNG streams.
	Seed uint64
	// Dev is the device to run on; nil creates a fresh simulated GT 560M.
	Dev *cudasim.Device
	// Cooperative stages the penalty arrays into shared memory with all
	// threads of a block in parallel behind a real __syncthreads barrier
	// (goroutine-per-thread; faithful but slower on the host). When
	// false, thread 0 stages and the block's threads execute in order.
	Cooperative bool
	// ReduceEvery launches the reduction kernel every that many
	// iterations (default 1, the paper's flowchart).
	ReduceEvery int
	// PTimeAccess selects the processing-time read mode of the fitness
	// kernel (see PAccess; default coalesced global).
	PTimeAccess PAccess
	// InitialSeq, when non-nil, starts every chain from this sequence
	// instead of independent uniform random sequences — the "same initial
	// configuration for all chains" option of Ferreiro et al., used by
	// the warm-start ablation with the constructive heuristic.
	InitialSeq []int
	// Budget bounds the run (iteration override and/or deadline; the
	// deadline applies at host-iteration granularity, i.e. once per
	// four-kernel round).
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
func (g *GPUSA) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "GPU-SA"
}

// PAccess selects how the fitness kernel reads the processing-time array,
// which is indexed by job id in sequence order — an inherently scattered
// pattern. The paper reads it from global memory uncached ("there are
// only a few reads from it inside the fitness function") and names
// texture memory as future work; the three modes let the ablation
// benchmarks quantify that design space on the timing model.
type PAccess int

const (
	// PAccessCoalesced charges the reads as coalesced global accesses —
	// the optimistic default, corresponding to a layout tuned so a warp's
	// reads land in few transactions.
	PAccessCoalesced PAccess = iota
	// PAccessScattered charges each read as an uncoalesced global access,
	// the worst case of the paper's uncached reads.
	PAccessScattered
	// PAccessTexture fetches each element through the texture cache
	// (the paper's future-work suggestion), with per-thread cache state
	// and the true sequence-order access pattern.
	PAccessTexture
)

// pipeline carries the device state shared by the SA and DPSO front ends.
type pipeline struct {
	dev                  *cudasim.Device
	inst                 *problem.Instance
	n                    int
	grid, block, threads int
	coop                 bool
	pAccess              PAccess

	// Job-parameter arrays, device-resident (indexed by job id). On
	// genome-coded instances (parallel machines or the early-work
	// objective) rows are delimiter genomes of length GenomeLen, and the
	// arrays are zero-padded to that length so separator ids stay
	// in-bounds for every access mode.
	pBuf, alphaBuf, betaBuf *cudasim.Buffer[int64]
	pTex                    *cudasim.Texture[int64]

	// Per-thread local state modelling registers/local memory.
	rngs     []*xrand.XORWOW
	pLocal   [][]int64 // texture-mode staging of processing times
	texCache []cudasim.TexCache
	// evals are the threads' fitness evaluators, each with its own
	// scratch row over one shared snapshot of the job data.
	evals []*core.BatchEvaluator
}

func newPipeline(dev *cudasim.Device, inst *problem.Instance, grid, block int, coop bool, seed uint64) *pipeline {
	n := inst.GenomeLen()
	pl := &pipeline{
		dev: dev, inst: inst, n: n,
		grid: grid, block: block, threads: grid * block,
		coop: coop,
	}
	p := make([]int64, n)
	a := make([]int64, n)
	b := make([]int64, n)
	for i, j := range inst.Jobs {
		p[i], a[i], b[i] = int64(j.P), int64(j.Alpha), int64(j.Beta)
	}
	pl.pBuf = cudasim.NewBufferFrom(dev, p)
	pl.alphaBuf = cudasim.NewBufferFrom(dev, a)
	pl.betaBuf = cudasim.NewBufferFrom(dev, b)
	if inst.Kind == problem.UCDDCP {
		m := make([]int64, n)
		gm := make([]int64, n)
		for i, j := range inst.Jobs {
			m[i], gm[i] = int64(j.M), int64(j.Gamma)
		}
		// Uploaded like the other job columns; the kernels only charge
		// their reads (fitnessStep), so no handle is kept.
		cudasim.NewBufferFrom(dev, m)
		cudasim.NewBufferFrom(dev, gm)
	}
	dev.SetConstantInt("n", int64(n))
	dev.SetConstantInt("d", inst.D)

	pl.rngs = make([]*xrand.XORWOW, pl.threads)
	pl.evals = make([]*core.BatchEvaluator, pl.threads)
	soa := core.NewSoAInstance(inst)
	for t := 0; t < pl.threads; t++ {
		pl.rngs[t] = xrand.NewStream(seed, uint64(t))
		pl.evals[t] = core.NewBatchEvaluatorSoA(inst, soa)
	}
	return pl
}

// enableTexture switches the processing-time reads to the given access
// mode, binding the texture and allocating per-thread staging when
// needed.
func (pl *pipeline) setPAccess(mode PAccess) {
	pl.pAccess = mode
	if mode != PAccessTexture {
		return
	}
	pl.pTex = cudasim.NewTexture(pl.pBuf)
	pl.pLocal = make([][]int64, pl.threads)
	pl.texCache = make([]cudasim.TexCache, pl.threads)
	for t := 0; t < pl.threads; t++ {
		pl.pLocal[t] = make([]int64, pl.n)
	}
}

// loadProcessingTimes returns the processing-time array the fitness
// function should use for this thread, charging the configured access
// mode for the sequence-order reads.
func (pl *pipeline) loadProcessingTimes(c *cudasim.Ctx, tid int, row []int32) []int64 {
	n := pl.n
	switch pl.pAccess {
	case PAccessScattered:
		c.ChargeGlobal(n, false)
		return pl.pBuf.Raw()
	case PAccessTexture:
		local := pl.pLocal[tid]
		cache := &pl.texCache[tid]
		cache.Reset()
		for _, job := range row {
			local[job] = pl.pTex.Fetch(c, cache, int(job))
		}
		return local
	default:
		c.ChargeGlobal(n, true)
		return pl.pBuf.Raw()
	}
}

func (pl *pipeline) launchCfg(name string) cudasim.LaunchConfig {
	return cudasim.LaunchConfig{
		Name:                name,
		Grid:                cudasim.Dim(pl.grid),
		Block:               cudasim.Dim(pl.block),
		Cooperative:         pl.coop,
		SharedBytesPerBlock: 2 * 8 * pl.n,
		// The O(n) fitness evaluation keeps prefix sums, penalty
		// accumulators and loop state live; 63 registers per thread is
		// the realistic (and register-file-saturating) figure that
		// produces the paper's observation that blocks beyond 192
		// threads "offer less registers which a thread can use" and
		// stop improving (BenchmarkAblationBlockSize).
		RegsPerThread: 63,
	}
}

// randomRows fills an N×n int32 matrix with per-thread random
// permutations (consuming each thread's RNG stream, as curand_init +
// generation would).
func (pl *pipeline) randomRows() []int32 {
	rows := make([]int32, pl.threads*pl.n)
	for t := 0; t < pl.threads; t++ {
		row := rows[t*pl.n : (t+1)*pl.n]
		for i := range row {
			row[i] = int32(i)
		}
		xrand.Shuffle(pl.rngs[t], row)
	}
	return rows
}

// uniformRows fills an N×n int32 matrix with copies of one sequence (the
// shared-initial-configuration mode of Ferreiro et al.).
func (pl *pipeline) uniformRows(seq []int) []int32 {
	rows := make([]int32, pl.threads*pl.n)
	for t := 0; t < pl.threads; t++ {
		row := rows[t*pl.n : (t+1)*pl.n]
		for i, v := range seq {
			row[i] = int32(v)
		}
	}
	return rows
}

// stagePenalties loads α and β into the block's shared memory and returns
// the shared views. In cooperative mode all threads stride-load behind a
// barrier (the paper's pattern); otherwise thread 0 stages before its
// in-order siblings read.
func (pl *pipeline) stagePenalties(c *cudasim.Ctx) (shA, shB []int64) {
	n := pl.n
	shA = c.SharedInt64(0, n)
	shB = c.SharedInt64(1, n)
	if pl.coop {
		tib := c.ThreadInBlock()
		tpb := c.BlockDim.Count()
		loads := 0
		alpha, beta := pl.alphaBuf.Raw(), pl.betaBuf.Raw()
		for j := tib; j < n; j += tpb {
			shA[j] = alpha[j]
			shB[j] = beta[j]
			loads++
		}
		c.ChargeGlobal(2*loads, true)
		c.ChargeShared(2 * loads)
		c.SyncThreads()
	} else if c.ThreadInBlock() == 0 {
		copy(shA, pl.alphaBuf.Raw())
		copy(shB, pl.betaBuf.Raw())
		c.ChargeGlobal(2*n, true)
		c.ChargeShared(2 * n)
	}
	return shA, shB
}

// fitnessKernel evaluates every thread's row of target into out: each
// thread stages the penalties in shared memory, reads the due date from
// constant memory and scores its row with the fitness step.
func (pl *pipeline) fitnessKernel(target *cudasim.Buffer[int32], out *cudasim.Buffer[int64]) error {
	return pl.dev.Launch(pl.launchCfg("fitness"), func(c *cudasim.Ctx) {
		pl.stagePenalties(c)
		tid := c.GlobalThreadID()
		n := pl.n
		c.ConstInt("d") // due-date read from constant memory
		out.Store(c, tid, pl.fitnessStep(c, tid, target.Raw()[tid*n:(tid+1)*n]))
	})
}

// fitnessStep scores one thread's row with the thread's evaluator — the
// kind's O(n) linear algorithm (core.BatchEvaluator.FitnessRow32) — and
// charges it: the sequence row, the α/β reads from shared memory, the
// processing-time reads in the configured access mode, the UCDDCP M/γ
// reads, and the algorithm's abstract op count as arithmetic. It is the
// fitness step of both the four-kernel pipeline and the persistent
// kernel.
func (pl *pipeline) fitnessStep(c *cudasim.Ctx, tid int, row []int32) int64 {
	cost, ops := pl.evals[tid].FitnessRow32(row)
	n := pl.n
	c.ChargeGlobal(n, true) // sequence row
	c.ChargeShared(2 * n)   // α/β reads from shared memory
	pl.loadProcessingTimes(c, tid, row)
	if pl.inst.Kind == problem.UCDDCP {
		c.ChargeGlobal(2*n, true) // M and γ reads
	}
	c.ChargeArith(ops)
	return cost
}

// perturbStep is one thread's perturbation, shared by the perturb kernel
// and the persistent kernel: dst becomes a copy of src perturbed by
// sa.Perturb, which the step charges. It returns the positions, which
// the caller keeps for the next call.
func perturbStep(c *cudasim.Ctx, rng *xrand.XORWOW, cfg *sa.Config, it int, pos []int, src, dst []int32) []int {
	n := len(src)
	copy(dst, src)
	c.ChargeGlobal(2*n, true)
	pos, redrawn := sa.Perturb(rng, cfg, it, pos, dst)
	if redrawn {
		c.ChargeArith(4 * cfg.Pert)
	}
	c.ChargeGlobal(2*len(pos), false) // scattered swaps
	c.ChargeArith(6 * len(pos))
	return pos
}

// acceptStep is one thread's acceptance, shared by the accept kernel and
// the persistent kernel: sa.Accept at temperature temp on the thread's
// stream; an accepted candidate row replaces the current row, and one
// that beats the thread's best cost also replaces its best row. The step
// charges the test and the row copies; the caller keeps the costs and
// charges their reads and writes.
func acceptStep(c *cudasim.Ctx, rng *xrand.XORWOW, temp float64, curCost, candCost, bestCost int64, cur, cand, best []int32) (accepted, improved bool) {
	accepted = sa.Accept(rng, curCost, candCost, temp)
	c.ChargeArith(12)
	if !accepted {
		return false, false
	}
	copy(cur, cand)
	c.ChargeGlobal(2*len(cand), true)
	if candCost >= bestCost {
		return true, false
	}
	copy(best, cand)
	c.ChargeGlobal(2*len(cand), true)
	return true, true
}

// reduceKernel folds a per-thread cost buffer into the packed
// (cost<<tidBits | tid) atomic minimum.
func (pl *pipeline) reduceKernel(costs, packed *cudasim.Buffer[int64]) error {
	cfg := pl.launchCfg("reduce")
	cfg.SharedBytesPerBlock = 0
	return pl.dev.Launch(cfg, func(c *cudasim.Ctx) {
		tid := c.GlobalThreadID()
		v := costs.Load(c, tid)
		cudasim.AtomicMinInt64(c, packed, 0, v<<tidBits|int64(tid))
	})
}

// gpuSetup resolves a GPU front end's launch geometry and device: the
// paper's 4 × 192 for zero Grid/Block and a fresh simulated GT 560M for
// a nil device. A geometry the packed reduction cannot index is rejected
// before anything is allocated.
func gpuSetup(grid, block int, dev *cudasim.Device) (int, int, *cudasim.Device, error) {
	if grid <= 0 {
		grid = 4
	}
	if block <= 0 {
		block = 192
	}
	if err := CheckChains(grid, block); err != nil {
		return 0, 0, nil, err
	}
	if dev == nil {
		dev = cudasim.NewDevice(cudasim.GT560M())
	}
	return grid, block, dev, nil
}

// hostT0 returns the GPU SA engines' initial temperature: cfg.T0 when
// set, otherwise the standard deviation of random-sequence fitnesses,
// estimated host-side as a pre-processing step on the stream just past
// the threads' own. It also returns the T₀ samples scored (counted on
// col as full evaluations).
func hostT0(col *obs.Collector, inst *problem.Instance, cfg sa.Config, seed uint64, threads int) (float64, int64) {
	if cfg.T0 > 0 {
		return cfg.T0, 0
	}
	var t0 float64
	phased(col, obs.PhaseT0, func() {
		t0 = core.InitialTemperature(core.NewEvaluator(inst), xrand.NewStream(seed, uint64(threads)+1), cfg.TempSamples)
	})
	scored := int64(core.TempSampleCount(cfg.TempSamples))
	col.AddFullEvals(scored)
	return t0, scored
}

// Solve runs the full pipeline and returns the reduced best solution.
// Cancellation is checked once per host iteration (one four-kernel
// round): a done context skips the remaining rounds, runs a final
// reduction over the per-thread bests and returns the winner with
// Interrupted set — valid from round zero, because the initialization
// fitness pass seeds every thread's best.
func (g *GPUSA) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = g.Inst
	}
	grid, block, dev, err := gpuSetup(g.Grid, g.Block, g.Dev)
	if err != nil {
		return core.Result{}, err
	}
	reduceEvery := g.ReduceEvery
	if reduceEvery <= 0 {
		reduceEvery = 1
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

	pl := newPipeline(dev, inst, grid, block, g.Cooperative, g.Seed)
	pl.setPAccess(g.PTimeAccess)
	N := pl.threads

	col := obs.NewCollector(g.Metrics)
	temp, evalCount := hostT0(col, inst, cfg, g.Seed, N)

	// Device state: sequences, candidates, costs, per-thread bests.
	var rows []int32
	if g.InitialSeq != nil {
		rows = pl.uniformRows(g.InitialSeq)
	} else {
		rows = pl.randomRows()
	}
	seqBuf := cudasim.NewBufferFrom(dev, rows)
	candBuf := cudasim.NewBuffer[int32](dev, N*n)
	costBuf := cudasim.NewBuffer[int64](dev, N)
	candCostBuf := cudasim.NewBuffer[int64](dev, N)
	bestCostBuf := cudasim.NewBuffer[int64](dev, N)
	bestSeqBuf := cudasim.NewBuffer[int32](dev, N*n)
	packedBuf := cudasim.NewBufferFrom(dev, []int64{math.MaxInt64})

	// Initial fitness of the random sequences; initialize bests.
	if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
		return pl.fitnessKernel(seqBuf, costBuf)
	}); err != nil {
		return core.Result{}, err
	}
	evalCount += int64(N)
	col.AddFullEvals(int64(N))
	if err := gpuPhased(col, dev, obs.PhaseInit, func() error {
		return dev.Launch(pl.launchCfg("init"), func(c *cudasim.Ctx) {
			tid := c.GlobalThreadID()
			v := costBuf.Load(c, tid)
			bestCostBuf.Store(c, tid, v)
			copy(bestSeqBuf.Raw()[tid*n:(tid+1)*n], seqBuf.Raw()[tid*n:(tid+1)*n])
			c.ChargeGlobal(2*n, true)
		})
	}); err != nil {
		return core.Result{}, err
	}

	// Per-thread perturbation position state (the paper re-draws the
	// Pert positions every 10 iterations).
	positions := make([][]int, N)
	for t := range positions {
		positions[t] = make([]int, 0, cfg.Pert)
	}

	interrupted := false
	for it := 0; it < cfg.Iterations; it++ {
		if ctx.Err() != nil {
			interrupted = true
			col.SetInterruptedAt("iteration")
			break
		}
		dev.SetConstantFloat("T", temp)
		iter := it

		// Kernel 1: perturbation (Fisher–Yates on a Pert-subset).
		if err := gpuPhased(col, dev, obs.PhasePerturb, func() error {
			return dev.Launch(pl.launchCfg("perturb"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				positions[tid] = perturbStep(c, pl.rngs[tid], &cfg, iter, positions[tid],
					seqBuf.Raw()[tid*n:(tid+1)*n], candBuf.Raw()[tid*n:(tid+1)*n])
			})
		}); err != nil {
			return core.Result{}, err
		}

		// Kernel 2: fitness of the candidates.
		if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
			return pl.fitnessKernel(candBuf, candCostBuf)
		}); err != nil {
			return core.Result{}, err
		}
		evalCount += int64(N)
		col.AddFullEvals(int64(N))

		// Kernel 3: metropolis acceptance + per-thread best tracking.
		if err := gpuPhased(col, dev, obs.PhaseAccept, func() error {
			return dev.Launch(pl.launchCfg("accept"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				cur := costBuf.Load(c, tid)
				cand := candCostBuf.Load(c, tid)
				// The thread's best cost is read, and charged, only for
				// an accepted candidate.
				accepted, improved := acceptStep(c, pl.rngs[tid], c.ConstFloat("T"), cur, cand, bestCostBuf.Raw()[tid],
					seqBuf.Raw()[tid*n:(tid+1)*n], candBuf.Raw()[tid*n:(tid+1)*n], bestSeqBuf.Raw()[tid*n:(tid+1)*n])
				if accepted {
					col.AddAccepts(1)
					costBuf.Store(c, tid, cand)
					c.ChargeGlobal(1, true) // the best-cost read
				}
				if improved {
					col.AddImprovements(1)
					bestCostBuf.Store(c, tid, cand)
				}
			})
		}); err != nil {
			return core.Result{}, err
		}

		// Kernel 4: reduction (atomic min in L2).
		if (it+1)%reduceEvery == 0 || it == cfg.Iterations-1 {
			if err := gpuPhased(col, dev, obs.PhaseReduce, func() error {
				return pl.reduceKernel(bestCostBuf, packedBuf)
			}); err != nil {
				return core.Result{}, err
			}
			if g.Progress != nil {
				seq, cost := pl.winner(packedBuf, bestSeqBuf)
				g.Progress(core.Snapshot{BestSeq: seq, BestCost: cost, Evaluations: evalCount, Elapsed: time.Since(start)})
			}
		}

		// Host: queue drain point and exponential cooling (Algorithm 1).
		dev.Synchronize()
		temp = cfg.Cool(temp)
	}
	if interrupted {
		// Fold the per-thread bests accumulated so far (the atomic min is
		// idempotent, so re-reducing rounds already folded is harmless).
		if err := gpuPhased(col, dev, obs.PhaseReduce, func() error {
			return pl.reduceKernel(bestCostBuf, packedBuf)
		}); err != nil {
			return core.Result{}, err
		}
	}

	// Copy the winner back to the host (the second transfer of Figure 9).
	bestSeq, bestCost := pl.winner(packedBuf, bestSeqBuf)

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
func (g *GPUSA) MustSolve() core.Result { return mustSolve(g, g.Inst) }

// winner copies the packed reduction word back to the host and decodes
// the winning thread's best sequence and cost — the shared final step of
// all three GPU front ends.
func (pl *pipeline) winner(packedBuf *cudasim.Buffer[int64], bestSeqBuf *cudasim.Buffer[int32]) ([]int, int64) {
	packed := make([]int64, 1)
	packedBuf.CopyToHost(packed)
	w := int(packed[0] & (1<<tidBits - 1))
	cost := packed[0] >> tidBits
	row := make([]int32, pl.n)
	bestSeqBuf.CopyRegionToHost(row, w*pl.n)
	seq := make([]int, pl.n)
	for i, v := range row {
		seq[i] = int(v)
	}
	return seq, cost
}
