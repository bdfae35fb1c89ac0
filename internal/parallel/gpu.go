package parallel

import (
	"context"
	"math"
	"math/bits"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/cudasim"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/xrand"
)

// tidBits is the width of the thread-index field in the packed
// (cost<<tidBits | tid) reduction values; 2^20 threads is far above any
// launch in this repository, and costs fit comfortably in the remaining
// 43 bits for every benchmark size.
const tidBits = 20

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

	// Job-parameter arrays, device-resident (indexed by job id).
	pBuf, alphaBuf, betaBuf *cudasim.Buffer[int64]
	mBuf, gammaBuf          *cudasim.Buffer[int64] // nil for CDD
	pTex                    *cudasim.Texture[int64]

	// Per-thread local state modelling registers/local memory.
	rngs     []*xrand.XORWOW
	comp     [][]int64
	aux      [][]int64 // second scratch row (UCDDCP)
	pLocal   [][]int64 // texture-mode staging of processing times
	texCache []cudasim.TexCache

	// deltas, when non-nil, hold per-thread incremental evaluators: the
	// fitness step prices each candidate by Propose over the perturbed
	// positions and the accept step advances the cache by Commit.
	deltas []*cdd.Delta[int32]

	// soa, when non-nil, is the genome-coded snapshot: the instance has
	// parallel machines or the early-work objective, rows are delimiter
	// genomes of length GenomeLen, and the persistent kernel scores them
	// through core.GenomeFitnessArrays. The device job arrays above are
	// zero-padded to the genome length so separator ids stay in-bounds
	// for every access mode.
	soa *core.SoAInstance

	// batch precomputes the full-pass fitness of all rows host-side in
	// one batch pass (lazily built on first fitnessKernel
	// launch); batchCost/batchOps carry the per-row results into the
	// kernel closure, which keeps every cycle charge.
	batch     *core.BatchEvaluator
	batchCost []int64
	batchOps  []int
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
	if inst.GenomeCoded() {
		pl.soa = core.NewSoAInstance(inst)
	}
	if inst.Kind == problem.UCDDCP {
		m := make([]int64, n)
		gm := make([]int64, n)
		for i, j := range inst.Jobs {
			m[i], gm[i] = int64(j.M), int64(j.Gamma)
		}
		pl.mBuf = cudasim.NewBufferFrom(dev, m)
		pl.gammaBuf = cudasim.NewBufferFrom(dev, gm)
	}
	dev.SetConstantInt("n", int64(n))
	dev.SetConstantInt("d", inst.D)

	pl.rngs = make([]*xrand.XORWOW, pl.threads)
	pl.comp = make([][]int64, pl.threads)
	pl.aux = make([][]int64, pl.threads)
	for t := 0; t < pl.threads; t++ {
		pl.rngs[t] = xrand.NewStream(seed, uint64(t))
		pl.comp[t] = make([]int64, n)
		pl.aux[t] = make([]int64, n)
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

// enableDelta builds the per-thread incremental CDD evaluators. Only the
// single-machine CDD kernels adopt the delta path (cdd.Delta prices plain
// sequences, not delimiter genomes), and only in the default coalesced
// access mode — the scattered/texture ablations exist to time the full
// pass's processing-time read pattern, so they keep it.
func (pl *pipeline) enableDelta() {
	pl.deltas = make([]*cdd.Delta[int32], pl.threads)
	for t := range pl.deltas {
		pl.deltas[t] = cdd.NewDelta[int32](pl.pBuf.Raw(), pl.alphaBuf.Raw(), pl.betaBuf.Raw(), pl.inst.D)
	}
}

// chargeDeltaReset charges the full fused pass plus the prefix/Fenwick
// build that Delta.Reset performs on a thread's row.
func chargeDeltaReset(c *cudasim.Ctx, n int) {
	c.ChargeGlobal(3*n, true) // sequence row + α/β full-pass reads
	c.ChargeArith(12 * n)
}

// chargeDeltaPropose charges the incremental candidate evaluation: O(k)
// aggregate corrections over the touched positions plus two binary
// searches with Fenwick prefix reads. With so few reads the delta path
// skips shared-memory staging and reads the touched entries straight
// from global memory (scattered).
func chargeDeltaPropose(c *cudasim.Ctx, k, lg int) {
	c.ChargeGlobal(3*k+4*lg, false)
	c.ChargeArith(12*k + 10*lg)
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

// batchFitness scores every thread's row of rows host-side in one
// batch pass over the SoA snapshot, returning the per-row
// costs and abstract op counts. Results are bit-identical to the
// per-thread OptimizeArrays calls they replace (the verify oracle chain
// asserts it), so the kernel's cycle charges — which consume the same
// ops — are unchanged too.
func (pl *pipeline) batchFitness(rows []int32) ([]int64, []int) {
	if pl.batch == nil {
		pl.batch = core.NewBatchEvaluator(pl.inst)
		pl.batchCost = make([]int64, pl.threads)
		pl.batchOps = make([]int, pl.threads)
	}
	pl.batch.FitnessRows32(rows, pl.batchCost, pl.batchOps)
	return pl.batchCost, pl.batchOps
}

// fitnessKernel evaluates every thread's row of target into out. The
// costs and op counts are precomputed in one batched host pass; the
// launch closure models the device exactly as before — shared-memory
// staging, the configured processing-time access mode, and the per-row
// arithmetic charge all stay inside the kernel.
func (pl *pipeline) fitnessKernel(target *cudasim.Buffer[int32], out *cudasim.Buffer[int64]) error {
	costs, ops := pl.batchFitness(target.Raw())
	return pl.dev.Launch(pl.launchCfg("fitness"), func(c *cudasim.Ctx) {
		pl.stagePenalties(c)
		tid := c.GlobalThreadID()
		n := pl.n
		row := target.Raw()[tid*n : (tid+1)*n]
		c.ConstInt("d")         // due-date read from constant memory
		c.ChargeGlobal(n, true) // sequence row
		c.ChargeShared(2 * n)   // α/β reads from shared memory
		pl.loadProcessingTimes(c, tid, row)
		if pl.inst.Kind == problem.UCDDCP {
			c.ChargeGlobal(2*n, true) // M and γ reads
		}
		c.ChargeArith(ops[tid])
		out.Store(c, tid, costs[tid])
	})
}

// resetKernel caches every thread's row of target in its incremental
// evaluator (a full fused pass plus the aggregate build) and writes the
// row's cost into out. It is the delta path's initialization fitness.
func (pl *pipeline) resetKernel(target *cudasim.Buffer[int32], out *cudasim.Buffer[int64]) error {
	return pl.dev.Launch(pl.launchCfg("fitness"), func(c *cudasim.Ctx) {
		tid := c.GlobalThreadID()
		n := pl.n
		row := target.Raw()[tid*n : (tid+1)*n]
		chargeDeltaReset(c, n)
		out.Store(c, tid, pl.deltas[tid].Reset(row))
	})
}

// deltaFitnessKernel prices every thread's candidate row incrementally:
// Propose over the thread's perturbed positions costs O(k + log n) per
// thread instead of the O(n) full pass, with bit-identical costs.
func (pl *pipeline) deltaFitnessKernel(target *cudasim.Buffer[int32], positions [][]int, out *cudasim.Buffer[int64]) error {
	cfg := pl.launchCfg("fitness")
	cfg.SharedBytesPerBlock = 0
	lg := bits.Len(uint(pl.n))
	return pl.dev.Launch(cfg, func(c *cudasim.Ctx) {
		tid := c.GlobalThreadID()
		n := pl.n
		row := target.Raw()[tid*n : (tid+1)*n]
		pos := positions[tid]
		chargeDeltaPropose(c, len(pos), lg)
		out.Store(c, tid, pl.deltas[tid].Propose(row, pos))
	})
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
	start := time.Now()
	simStart := dev.SimTime()

	pl := newPipeline(dev, inst, grid, block, g.Cooperative, g.Seed)
	pl.setPAccess(g.PTimeAccess)
	if inst.Kind == problem.CDD && !inst.GenomeCoded() && g.PTimeAccess == PAccessCoalesced {
		pl.enableDelta()
	}
	N := pl.threads

	// Normalize the SA parameters exactly as sa.Chain would.
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
	// T0: standard deviation of random-sequence fitnesses (host side, as
	// a pre-processing step; one stream beyond the thread streams).
	temp := cfg.T0
	if temp <= 0 {
		phased(col, obs.PhaseT0, func() {
			eval := core.NewEvaluator(inst)
			temp = core.InitialTemperature(eval, xrand.NewStream(g.Seed, uint64(N)+1), cfg.TempSamples)
		})
		scored := int64(core.TempSampleCount(cfg.TempSamples))
		evalCount += scored
		col.AddFullEvals(scored)
	}

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

	// Initial fitness of the random sequences; initialize bests. The delta
	// path caches each row during this pass so later iterations can price
	// candidates incrementally.
	if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
		if pl.deltas != nil {
			return pl.resetKernel(seqBuf, costBuf)
		}
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
				rng := pl.rngs[tid]
				src := seqBuf.Raw()[tid*n : (tid+1)*n]
				dst := candBuf.Raw()[tid*n : (tid+1)*n]
				copy(dst, src)
				c.ChargeGlobal(2*n, true)
				if iter%cfg.ReselectPeriod == 0 || len(positions[tid]) == 0 {
					positions[tid] = drawPositions(rng, positions[tid][:0], n, cfg.Pert)
					c.ChargeArith(4 * cfg.Pert)
				}
				pos := positions[tid]
				for i := len(pos) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					a, b := pos[i], pos[j]
					dst[a], dst[b] = dst[b], dst[a]
				}
				c.ChargeGlobal(2*len(pos), false) // scattered swaps
				c.ChargeArith(6 * len(pos))
			})
		}); err != nil {
			return core.Result{}, err
		}

		// Kernel 2: fitness of the candidates — incremental when the delta
		// path is on (O(touched) per thread), the full O(n) pass otherwise.
		if err := gpuPhased(col, dev, obs.PhaseFitness, func() error {
			if pl.deltas != nil {
				return pl.deltaFitnessKernel(candBuf, positions, candCostBuf)
			}
			return pl.fitnessKernel(candBuf, candCostBuf)
		}); err != nil {
			return core.Result{}, err
		}
		evalCount += int64(N)
		if pl.deltas != nil {
			col.AddDeltaEvals(int64(N))
		} else {
			col.AddFullEvals(int64(N))
		}

		// Kernel 3: metropolis acceptance + per-thread best tracking.
		if err := gpuPhased(col, dev, obs.PhaseAccept, func() error {
			return dev.Launch(pl.launchCfg("accept"), func(c *cudasim.Ctx) {
				tid := c.GlobalThreadID()
				rng := pl.rngs[tid]
				cur := costBuf.Load(c, tid)
				cand := candCostBuf.Load(c, tid)
				T := c.ConstFloat("T")
				accept := cand <= cur
				if !accept && T > 0 {
					accept = math.Exp(float64(cur-cand)/T) >= rng.Float64()
				}
				c.ChargeArith(12)
				if accept {
					col.AddAccepts(1)
					if pl.deltas != nil {
						pl.deltas[tid].Commit()
						c.ChargeArith(10 * len(positions[tid]) * bits.Len(uint(n)))
					}
					copy(seqBuf.Raw()[tid*n:(tid+1)*n], candBuf.Raw()[tid*n:(tid+1)*n])
					costBuf.Store(c, tid, cand)
					c.ChargeGlobal(2*n, true)
					if cand < bestCostBuf.Load(c, tid) {
						col.AddImprovements(1)
						bestCostBuf.Store(c, tid, cand)
						copy(bestSeqBuf.Raw()[tid*n:(tid+1)*n], candBuf.Raw()[tid*n:(tid+1)*n])
						c.ChargeGlobal(2*n, true)
					}
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
		temp *= cfg.Cooling
		if cfg.TMin > 0 && temp < cfg.TMin {
			temp = cfg.TMin
		}
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

// drawPositions samples k distinct positions in [0,n) into dst using
// Floyd's algorithm.
func drawPositions(rng *xrand.XORWOW, dst []int, n, k int) []int {
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		found := false
		for _, p := range dst {
			if p == t {
				found = true
				break
			}
		}
		if found {
			dst = append(dst, j)
		} else {
			dst = append(dst, t)
		}
	}
	return dst
}
