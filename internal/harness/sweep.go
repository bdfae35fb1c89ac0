package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/orlib"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/stats"
	"repro/internal/ta"
	"repro/internal/xrand"
)

// AlgoNames are the four parallel algorithms of the result tables, in the
// paper's column order.
var AlgoNames = []string{"SA_low", "SA_high", "DPSO_low", "DPSO_high"}

// InstanceRun is the outcome of one algorithm on one instance.
type InstanceRun struct {
	Cost   int64
	Wall   float64 // host seconds
	Sim    float64 // simulated device seconds
	Evals  int64   // fitness evaluations performed
	PctDev float64 // 100·(Z−Z_best)/Z_best against the CPU reference
	// Accepts comes from the solver's metrics snapshot: accepted moves
	// (pbest refreshes for DPSO).
	Accepts int64
}

// InstanceResult collects everything measured on one instance.
type InstanceResult struct {
	Name       string
	Size       int
	RefCost    int64   // Z_best of the serial CPU SA reference ([7] stand-in)
	RefWall7   float64 // its wall-clock seconds
	RefEvals7  int64   // its fitness evaluations
	RefWall18  float64 // wall-clock of the serial TA reference ([18] stand-in)
	RefEvals18 int64   // its fitness evaluations
	Runs       map[string]InstanceRun
}

// SizeRow aggregates a job size: the mean %Δ of Tables II/IV, the mean
// speedups of Tables III/V and the mean runtimes of Figures 14/16.
type SizeRow struct {
	Size int
	// MeanPctDev, MeanWall, MeanSim and speedups are keyed by algorithm.
	MeanPctDev map[string]float64
	MeanWall   map[string]float64
	MeanSim    map[string]float64
	// MeanEvals and MeanAccepts aggregate the metrics counters of the
	// parallel runs (Figures 12/15 companion columns).
	MeanEvals   map[string]float64
	MeanAccepts map[string]float64
	// Speedups are budget-normalized: reference seconds-per-evaluation ×
	// the run's evaluation count, divided by the run's wall (Wall) or
	// simulated device (Sim) time.
	SpeedupWall7  map[string]float64
	SpeedupSim7   map[string]float64
	SpeedupWall18 map[string]float64
	// RawSim7 is the paper-style end-to-end ratio: the reference's wall
	// seconds divided by the run's simulated device seconds, without
	// budget normalization (so the high-iteration variants show ~5× lower
	// values, as in the paper's Tables III/V).
	RawSim7   map[string]float64
	RefWall7  float64
	RefWall18 float64
}

// Sweep is the full dataset behind one problem kind's tables and figures.
type Sweep struct {
	Preset    Preset
	Kind      problem.Kind
	Instances []InstanceResult
	Rows      []SizeRow
	Elapsed   time.Duration
}

// RunSweep executes the benchmark sweep for one problem kind. Progress
// lines go to progress when non-nil. A cancelled context stops the sweep
// before the next instance and returns the context's error.
func RunSweep(ctx context.Context, p Preset, kind problem.Kind, progress io.Writer) (*Sweep, error) {
	start := time.Now()
	sw := &Sweep{Preset: p, Kind: kind}
	for _, size := range p.Sizes {
		instances, err := benchmarkInstances(p, kind, size)
		if err != nil {
			return nil, err
		}
		var results []InstanceResult
		for idx, inst := range instances {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			seed := p.Seed ^ uint64(size)<<32 ^ uint64(idx)<<8 ^ uint64(kind)
			res, err := runInstance(ctx, p, inst, seed)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
			if progress != nil {
				fmt.Fprintf(progress, "%s n=%d %s: ref=%d", kind, size, inst.Name, res.RefCost)
				for _, algo := range AlgoNames {
					fmt.Fprintf(progress, " %s=%.2f%%", algo, res.Runs[algo].PctDev)
				}
				fmt.Fprintln(progress)
			}
		}
		sw.Instances = append(sw.Instances, results...)
		sw.Rows = append(sw.Rows, aggregateSize(size, results))
	}
	sw.Elapsed = time.Since(start)
	return sw, nil
}

// benchmarkInstances returns the per-size instance slice of a kind.
func benchmarkInstances(p Preset, kind problem.Kind, size int) ([]*problem.Instance, error) {
	if kind == problem.UCDDCP {
		return orlib.BenchmarkUCDDCP(size, p.Records, p.Seed)
	}
	return orlib.BenchmarkCDD(size, p.Records, p.Seed)
}

// runInstance executes the references and the four parallel algorithms on
// one instance.
func runInstance(ctx context.Context, p Preset, inst *problem.Instance, seed uint64) (InstanceResult, error) {
	res := InstanceResult{
		Name: inst.Name,
		Size: inst.N(),
		Runs: make(map[string]InstanceRun, len(AlgoNames)),
	}

	// CPU reference [7]: the serial hybrid SA of Lässig et al. — a serial
	// ensemble of RefChains chains at the high iteration budget. Its best
	// value is Z_best, its wall time the CPU[7] runtime.
	saRef := sa.Config{
		Iterations:  p.ItersHigh,
		TempSamples: p.TempSamples,
	}
	refStart := time.Now()
	ref, err := (&parallel.AsyncSA{
		Label: "CPU-SA-ref", Inst: inst, SA: saRef,
		Ens:      parallel.Ensemble{Chains: p.RefChains, Seed: seed ^ 0xAE5},
		Parallel: false,
	}).Solve(ctx, inst)
	if err != nil {
		return res, err
	}
	res.RefWall7 = time.Since(refStart).Seconds()
	res.RefCost = ref.BestCost
	res.RefEvals7 = ref.Evaluations

	// CPU reference [18]: the Feldmann–Biskup metaheuristic family,
	// represented by serial Threshold Accepting with the same budget,
	// driven through the shared ensemble runtime.
	taStart := time.Now()
	taCfg := ta.Config{Iterations: p.ItersHigh, TempSamples: p.TempSamples}
	refTA, err := (&parallel.ChainEnsemble{
		Label: "CPU-TA-ref", Inst: inst,
		Ens:        parallel.Ensemble{Chains: p.RefChains, Seed: seed ^ 0x18},
		Iterations: p.ItersHigh,
		NewChain: func(inst *problem.Instance, c int, rng *xrand.XORWOW) parallel.Chain {
			return ta.NewChain(taCfg, core.NewEvaluator(inst), rng)
		},
	}).Solve(ctx, inst)
	if err != nil {
		return res, err
	}
	res.RefEvals18 = refTA.Evaluations
	res.RefWall18 = time.Since(taStart).Seconds()

	// The four parallel algorithms go through the facade, so the sweep
	// exercises exactly what library callers get, honors the preset's
	// engine selection, and collects the metrics counters.
	engine := duedate.EngineGPU
	if p.Engine != "" {
		var err error
		if engine, err = duedate.ParseEngine(p.Engine); err != nil {
			return res, err
		}
	}
	type runSpec struct {
		algo  duedate.Algorithm
		iters int
		seed  uint64
	}
	specs := map[string]runSpec{
		"SA_low":    {duedate.SA, p.ItersLow, seed},
		"SA_high":   {duedate.SA, p.ItersHigh, seed + 1},
		"DPSO_low":  {duedate.DPSO, p.ItersLow, seed + 2},
		"DPSO_high": {duedate.DPSO, p.ItersHigh, seed + 3},
	}
	for _, algo := range AlgoNames {
		sp := specs[algo]
		r, err := duedate.SolveContext(ctx, inst, duedate.Options{
			Algorithm:   sp.algo,
			Engine:      engine,
			Iterations:  sp.iters,
			Grid:        p.Grid,
			Block:       p.Block,
			Seed:        sp.seed,
			TempSamples: p.TempSamples,
			Metrics:     duedate.MetricsCounters,
		})
		if err != nil {
			return res, fmt.Errorf("harness: %s on %s: %w", algo, inst.Name, err)
		}
		run := InstanceRun{
			Cost:   r.BestCost,
			Wall:   r.Elapsed.Seconds(),
			Sim:    r.SimSeconds,
			Evals:  r.Evaluations,
			PctDev: core.PercentDeviation(r.BestCost, res.RefCost),
		}
		if m := r.Metrics; m != nil {
			run.Accepts = m.Acceptances
		}
		res.Runs[algo] = run
	}
	return res, nil
}

// aggregateSize folds the per-instance results of one size into a row.
func aggregateSize(size int, results []InstanceResult) SizeRow {
	row := SizeRow{
		Size:          size,
		MeanPctDev:    map[string]float64{},
		MeanWall:      map[string]float64{},
		MeanSim:       map[string]float64{},
		MeanEvals:     map[string]float64{},
		MeanAccepts:   map[string]float64{},
		SpeedupWall7:  map[string]float64{},
		SpeedupSim7:   map[string]float64{},
		SpeedupWall18: map[string]float64{},
		RawSim7:       map[string]float64{},
	}
	var ref7, ref18 []float64
	for _, r := range results {
		ref7 = append(ref7, r.RefWall7)
		ref18 = append(ref18, r.RefWall18)
	}
	row.RefWall7 = stats.Mean(ref7)
	row.RefWall18 = stats.Mean(ref18)
	for _, algo := range AlgoNames {
		var devs, walls, sims []float64
		var evals, accepts []float64
		var spWall7, spSim7, spWall18, rawSim7 []float64
		for _, r := range results {
			run := r.Runs[algo]
			devs = append(devs, run.PctDev)
			walls = append(walls, run.Wall)
			sims = append(sims, run.Sim)
			evals = append(evals, float64(run.Evals))
			accepts = append(accepts, float64(run.Accepts))
			// Budget-normalized speedups: the serial CPU reference's
			// seconds-per-evaluation, projected onto this run's
			// evaluation count, divided by the run's time. This is the
			// like-for-like "how much faster does the parallel engine
			// chew the same workload" ratio; the paper's end-to-end
			// implementation ratios are not reproducible without the
			// original binaries (see EXPERIMENTS.md).
			cpuPerEval7 := r.RefWall7 / float64(maxInt64(r.RefEvals7, 1))
			cpuPerEval18 := r.RefWall18 / float64(maxInt64(r.RefEvals18, 1))
			projected7 := cpuPerEval7 * float64(run.Evals)
			projected18 := cpuPerEval18 * float64(run.Evals)
			spWall7 = append(spWall7, stats.Speedup(projected7, run.Wall))
			spSim7 = append(spSim7, stats.Speedup(projected7, run.Sim))
			spWall18 = append(spWall18, stats.Speedup(projected18, run.Wall))
			rawSim7 = append(rawSim7, stats.Speedup(r.RefWall7, run.Sim))
		}
		row.MeanPctDev[algo] = stats.Mean(devs)
		row.MeanWall[algo] = stats.Mean(walls)
		row.MeanSim[algo] = stats.Mean(sims)
		row.MeanEvals[algo] = stats.Mean(evals)
		row.MeanAccepts[algo] = stats.Mean(accepts)
		row.SpeedupWall7[algo] = stats.Mean(spWall7)
		row.SpeedupSim7[algo] = stats.Mean(spSim7)
		row.SpeedupWall18[algo] = stats.Mean(spWall18)
		row.RawSim7[algo] = stats.Mean(rawSim7)
	}
	return row
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
