// Macro-benchmarks regenerating the paper's evaluation, one per table and
// figure. Each benchmark runs a miniature of the corresponding experiment
// (small sizes and budgets so `go test -bench=.` completes in minutes) and
// reports the experiment's headline quantity as a custom metric:
// %Δ for the quality tables (II/IV and Figures 12/15), speedup ratios for
// the speedup tables (III/V and Figures 13/17), and simulated device
// seconds for the runtime figures (11/14/16). The full-scale versions run
// via `go run ./cmd/experiments -preset full`.
package duedate_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/harness"
	"repro/internal/orlib"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/xrand"
)

const (
	benchSeed      = orlib.DefaultSeed
	benchItersLow  = 100
	benchItersHigh = 500
	benchGrid      = 2
	benchBlock     = 32
	benchTemp      = 200
)

var benchSizes = []int{10, 50}

// refCache memoizes the serial CPU reference per instance so the quality
// benchmarks don't re-run it every b.N iteration.
var refCache sync.Map

func benchInstance(b *testing.B, kind problem.Kind, size int) *problem.Instance {
	b.Helper()
	var (
		ins []*problem.Instance
		err error
	)
	if kind == problem.UCDDCP {
		ins, err = orlib.BenchmarkUCDDCP(size, 1, benchSeed)
	} else {
		ins, err = orlib.BenchmarkCDD(size, 1, benchSeed)
	}
	if err != nil {
		b.Fatal(err)
	}
	return ins[len(ins)-1]
}

func referenceCost(b *testing.B, in *problem.Instance) int64 {
	b.Helper()
	if v, ok := refCache.Load(in.Name); ok {
		return v.(int64)
	}
	ref := (&parallel.AsyncSA{
		Inst: in,
		SA:   sa.Config{Iterations: benchItersHigh, TempSamples: benchTemp},
		Ens:  parallel.Ensemble{Chains: 4, Seed: 99},
	}).MustSolve()
	refCache.Store(in.Name, ref.BestCost)
	return ref.BestCost
}

// benchQuality is the engine behind the Table II/IV and Figure 12/15
// benchmarks: run one parallel algorithm on the simulated GPU and report
// its %Δ against the CPU reference.
func benchQuality(b *testing.B, kind problem.Kind, useDPSO bool, iters int) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, kind, size)
			ref := referenceCost(b, in)
			var last float64
			for i := 0; i < b.N; i++ {
				var res core.Result
				if useDPSO {
					res = (&parallel.GPUDPSO{
						Inst: in, PSO: dpso.Config{Iterations: iters},
						Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
					}).MustSolve()
				} else {
					res = (&parallel.GPUSA{
						Inst: in, SA: sa.Config{Iterations: iters, TempSamples: benchTemp},
						Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
					}).MustSolve()
				}
				last = core.PercentDeviation(res.BestCost, ref)
			}
			b.ReportMetric(last, "%Δ")
		})
	}
}

// BenchmarkTableII_CDD_SA / …_DPSO reproduce Table II's quality columns.
func BenchmarkTableII_CDD_SA_low(b *testing.B)    { benchQuality(b, problem.CDD, false, benchItersLow) }
func BenchmarkTableII_CDD_SA_high(b *testing.B)   { benchQuality(b, problem.CDD, false, benchItersHigh) }
func BenchmarkTableII_CDD_DPSO_low(b *testing.B)  { benchQuality(b, problem.CDD, true, benchItersLow) }
func BenchmarkTableII_CDD_DPSO_high(b *testing.B) { benchQuality(b, problem.CDD, true, benchItersHigh) }

// BenchmarkFigure12_CDD_DeviationBars is the bar-chart view of Table II:
// one sub-benchmark per (algorithm, size) bar at the low budget.
func BenchmarkFigure12_CDD_DeviationBars(b *testing.B) {
	for _, algo := range []string{"SA", "DPSO"} {
		b.Run(algo, func(b *testing.B) {
			benchQuality(b, problem.CDD, algo == "DPSO", benchItersLow)
		})
	}
}

// BenchmarkTableIV_UCDDCP_* reproduce Table IV's quality columns.
func BenchmarkTableIV_UCDDCP_SA_low(b *testing.B) {
	benchQuality(b, problem.UCDDCP, false, benchItersLow)
}
func BenchmarkTableIV_UCDDCP_SA_high(b *testing.B) {
	benchQuality(b, problem.UCDDCP, false, benchItersHigh)
}
func BenchmarkTableIV_UCDDCP_DPSO_low(b *testing.B) {
	benchQuality(b, problem.UCDDCP, true, benchItersLow)
}
func BenchmarkTableIV_UCDDCP_DPSO_high(b *testing.B) {
	benchQuality(b, problem.UCDDCP, true, benchItersHigh)
}

// BenchmarkFigure15_UCDDCP_DeviationBars mirrors Figure 15.
func BenchmarkFigure15_UCDDCP_DeviationBars(b *testing.B) {
	for _, algo := range []string{"SA", "DPSO"} {
		b.Run(algo, func(b *testing.B) {
			benchQuality(b, problem.UCDDCP, algo == "DPSO", benchItersLow)
		})
	}
}

// benchSpeedup measures the serial CPU ensemble wall time against the
// parallel engine (goroutine-backed simulated GPU) wall time and reports
// both the measured and the device-model speedup — Tables III/V and
// Figures 13/17.
func benchSpeedup(b *testing.B, kind problem.Kind) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, kind, size)
			saCfg := sa.Config{Iterations: benchItersLow, TempSamples: benchTemp}
			var wallSpeedup, simSpeedup float64
			for i := 0; i < b.N; i++ {
				serial := (&parallel.AsyncSA{
					Inst: in, SA: saCfg,
					Ens: parallel.Ensemble{Chains: benchGrid * benchBlock, Seed: uint64(i) + 1},
				}).MustSolve()
				gpu := (&parallel.GPUSA{
					Inst: in, SA: saCfg,
					Grid: benchGrid, Block: benchBlock, Seed: uint64(i) + 1,
				}).MustSolve()
				wallSpeedup = serial.Elapsed.Seconds() / gpu.Elapsed.Seconds()
				simSpeedup = serial.Elapsed.Seconds() / gpu.SimSeconds
			}
			b.ReportMetric(wallSpeedup, "x-wall")
			b.ReportMetric(simSpeedup, "x-model")
		})
	}
}

// BenchmarkTableIII_CDD_Speedups and BenchmarkFigure13_CDD_SpeedupCurve
// reproduce the CDD speedup table/plot.
func BenchmarkTableIII_CDD_Speedups(b *testing.B)     { benchSpeedup(b, problem.CDD) }
func BenchmarkFigure13_CDD_SpeedupCurve(b *testing.B) { benchSpeedup(b, problem.CDD) }

// BenchmarkTableV_UCDDCP_Speedups and Figure 17 reproduce the UCDDCP
// speedups.
func BenchmarkTableV_UCDDCP_Speedups(b *testing.B)       { benchSpeedup(b, problem.UCDDCP) }
func BenchmarkFigure17_UCDDCP_SpeedupCurve(b *testing.B) { benchSpeedup(b, problem.UCDDCP) }

// benchRuntime reports the simulated device seconds of the GPU pipeline —
// the runtime curves of Figures 14 (CDD) and 16 (UCDDCP).
func benchRuntime(b *testing.B, kind problem.Kind, useDPSO bool) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, kind, size)
			var sim float64
			for i := 0; i < b.N; i++ {
				var res core.Result
				if useDPSO {
					res = (&parallel.GPUDPSO{
						Inst: in, PSO: dpso.Config{Iterations: benchItersLow},
						Grid: benchGrid, Block: benchBlock, Seed: 1,
					}).MustSolve()
				} else {
					res = (&parallel.GPUSA{
						Inst: in, SA: sa.Config{Iterations: benchItersLow, TempSamples: benchTemp},
						Grid: benchGrid, Block: benchBlock, Seed: 1,
					}).MustSolve()
				}
				sim = res.SimSeconds
			}
			b.ReportMetric(sim*1e3, "sim-ms")
		})
	}
}

func BenchmarkFigure14_CDD_Runtime_SA(b *testing.B)      { benchRuntime(b, problem.CDD, false) }
func BenchmarkFigure14_CDD_Runtime_DPSO(b *testing.B)    { benchRuntime(b, problem.CDD, true) }
func BenchmarkFigure16_UCDDCP_Runtime_SA(b *testing.B)   { benchRuntime(b, problem.UCDDCP, false) }
func BenchmarkFigure16_UCDDCP_Runtime_DPSO(b *testing.B) { benchRuntime(b, problem.UCDDCP, true) }

// BenchmarkFigure11_Surface sweeps threads × generations on the UCDDCP
// fitness pipeline and reports the simulated device milliseconds of each
// cell — Figure 11's runtime surface.
func BenchmarkFigure11_Surface(b *testing.B) {
	for _, threads := range []int{32, 64, 128} {
		for _, gens := range []int{50, 100} {
			b.Run(fmt.Sprintf("threads%d_gens%d", threads, gens), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					points, err := harness.Figure11(context.Background(), harness.Fig11Config{
						Size: 30, Block: 32,
						Threads:     []int{threads},
						Generations: []int{gens},
						TempSamples: 100,
						Seed:        benchSeed,
					}, nil)
					if err != nil {
						b.Fatal(err)
					}
					sim = points[0].SimSeconds
				}
				b.ReportMetric(sim*1e3, "sim-ms")
			})
		}
	}
}

// BenchmarkEvaluatorCDD and BenchmarkEvaluatorUCDDCP time the inner-layer
// O(n) algorithms themselves (the per-thread fitness cost underlying all
// of the above).
func BenchmarkEvaluatorCDD(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, problem.CDD, size)
			eval := core.NewEvaluator(in)
			seq := problem.IdentitySequence(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Cost(seq)
			}
		})
	}
}

// BenchmarkEvaluatorCDDDelta times the incremental propose path on the
// paper's Pert = 4 perturbation: each iteration applies a 4-cycle to the
// cached sequence, prices it with Propose in O(Δ), and undoes the move —
// the steady-state cost of one rejected SA step under the delta protocol.
func BenchmarkEvaluatorCDDDelta(b *testing.B) {
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, problem.CDD, size)
			de := core.NewDeltaEvaluator(in)
			rng := xrand.New(7)
			seq := problem.IdentitySequence(size)
			de.Reset(seq)
			cand := append([]int(nil), seq...)
			// Pre-draw the move positions so the loop times the propose
			// path, not the random generator.
			const moves = 512
			pos := make([][4]int, moves)
			for m := range pos {
				for j := range pos[m] {
					pos[m][j] = rng.Intn(size)
				}
			}
			var save [4]int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pm := &pos[i%moves]
				for j, q := range pm {
					save[j] = cand[q]
				}
				for j, q := range pm {
					cand[q] = save[(j+1)%len(pm)]
				}
				de.Propose(cand, pm[:])
				for j, q := range pm {
					cand[q] = save[j]
				}
			}
		})
	}
}

func BenchmarkEvaluatorUCDDCP(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			in := benchInstance(b, problem.UCDDCP, size)
			eval := core.NewEvaluator(in)
			seq := problem.IdentitySequence(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Cost(seq)
			}
		})
	}
}

// batchBenchRows builds batch random permutation rows of length size.
// The generator is seeded per (kind, size) only, so the single-mode
// baseline and every batch mode of one sub-benchmark family score a
// prefix of the exact same row set — the reported ns/seq values are
// same-workload comparable.
func batchBenchRows(batch, size int) []int {
	rng := xrand.New(5)
	rows := make([]int, batch*size)
	for t := 0; t < batch; t++ {
		row := rows[t*size : (t+1)*size]
		for i := range row {
			row[i] = i
		}
		xrand.Shuffle(rng, row)
	}
	return rows
}

// BenchmarkBatchEvaluator times the batch evaluation core on row-major
// populations: B sequences per CostRows call, each row through the
// kind's single-row core, reporting ns/seq (per-sequence cost). The
// "single" mode scores the same rows one at a time through the
// per-sequence Evaluator face — the like-for-like baseline the batch
// modes are judged against. The benchjson post-processor derives the
// batch-vs-single speedup from the two.
func BenchmarkBatchEvaluator(b *testing.B) {
	const baseRows = 16
	for _, kind := range []problem.Kind{problem.CDD, problem.UCDDCP} {
		for _, size := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/n%d/single", kind, size), func(b *testing.B) {
				in := benchInstance(b, kind, size)
				eval := core.NewEvaluator(in)
				rows := batchBenchRows(baseRows, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for t := 0; t < baseRows; t++ {
						eval.Cost(rows[t*size : (t+1)*size])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*baseRows), "ns/seq")
			})
			for _, batch := range []int{16, 256} {
				b.Run(fmt.Sprintf("%s/n%d/B%d", kind, size, batch), func(b *testing.B) {
					in := benchInstance(b, kind, size)
					be := core.NewBatchEvaluator(in)
					rows := batchBenchRows(batch, size)
					costs := make([]int64, batch)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						be.CostRows(rows, costs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(batch)), "ns/seq")
				})
			}
		}
	}
}

// benchGenomeInstance lifts a single-machine benchmark instance onto m
// machines (EARLYWORK is built directly: d = 0.6·ΣP/m, the generator's
// default restrictive band).
func benchGenomeInstance(b *testing.B, kind problem.Kind, size, m int) *problem.Instance {
	b.Helper()
	if kind == problem.EARLYWORK {
		base := benchInstance(b, problem.CDD, size)
		p := make([]int, size)
		var sum int64
		for i, j := range base.Jobs {
			p[i] = j.P
			sum += int64(j.P)
		}
		in, err := problem.NewEarlyWork(fmt.Sprintf("bench-ew-n%d-m%d", size, m), p, m, sum*6/int64(10*m))
		if err != nil {
			b.Fatal(err)
		}
		return in
	}
	in := benchInstance(b, kind, size).Clone()
	in.Machines = m
	return in
}

// BenchmarkEvaluatorGenome times the generalized full-evaluation path on
// parallel-machine instances: one delimiter genome of length n + m − 1
// split and scored per machine segment per Cost call. The m1 rows are
// the like-for-like single-machine baseline (plain sequence path for
// CDD, the late-work closed form for EARLYWORK), so the per-call price
// of the genome generalization is read directly off the table.
func BenchmarkEvaluatorGenome(b *testing.B) {
	for _, kind := range []problem.Kind{problem.CDD, problem.EARLYWORK} {
		for _, m := range []int{1, 2, 4} {
			for _, size := range []int{100, 1000} {
				b.Run(fmt.Sprintf("%s/m%d/n%d", kind, m, size), func(b *testing.B) {
					in := benchGenomeInstance(b, kind, size, m)
					eval := core.NewEvaluator(in)
					genome := problem.IdentitySequence(in.GenomeLen())
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eval.Cost(genome)
					}
				})
			}
		}
	}
}

// BenchmarkEvaluatorGenomeDelta times the machine-aware incremental
// path: each iteration swaps two adjacent genome positions (the
// worst case touches two machine segments) and prices the move with
// Propose, which rescores only the machines intersecting the window.
func BenchmarkEvaluatorGenomeDelta(b *testing.B) {
	for _, m := range []int{2, 4} {
		for _, size := range []int{100, 1000} {
			b.Run(fmt.Sprintf("CDD/m%d/n%d", m, size), func(b *testing.B) {
				in := benchGenomeInstance(b, problem.CDD, size, m)
				de := core.NewMachineDeltaEvaluator(in)
				L := in.GenomeLen()
				genome := problem.IdentitySequence(L)
				de.Reset(genome)
				cand := append([]int(nil), genome...)
				rng := xrand.New(7)
				const moves = 512
				pos := make([]int, moves)
				for i := range pos {
					pos[i] = rng.Intn(L - 1)
				}
				window := make([]int, 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := pos[i%moves]
					cand[q], cand[q+1] = cand[q+1], cand[q]
					window[0], window[1] = q, q+1
					de.Propose(cand, window)
					cand[q], cand[q+1] = cand[q+1], cand[q]
				}
			})
		}
	}
}

// BenchmarkChainStep times one sa.Chain.Step — neighbour, score,
// metropolis test, cool — over the full O(n) evaluator and over the
// incremental propose/commit evaluator, on the same trajectories (the
// two price candidates bit-identically). Chains run the paper's profile:
// 1000 steps from an estimated T₀, then a fresh chain on the next RNG
// stream, so the rows average over hot and cold phases and include
// Commit on every acceptance. Chain construction is untimed.
func BenchmarkChainStep(b *testing.B) {
	type move struct {
		name string
		op   sa.NeighborOp
	}
	allMoves := []move{
		{"shuffle", sa.NeighborShuffle}, {"swap", sa.NeighborSwap}, {"insert", sa.NeighborInsert},
		{"reverse", sa.NeighborReverse}, {"mixed", sa.NeighborMixed},
	}
	cases := []struct {
		name  string
		in    func(b *testing.B) *problem.Instance
		moves []move
	}{
		{"CDD/n100", func(b *testing.B) *problem.Instance { return benchInstance(b, problem.CDD, 100) }, allMoves},
		{"CDD/n1000", func(b *testing.B) *problem.Instance { return benchInstance(b, problem.CDD, 1000) }, allMoves},
		{"UCDDCP/n100", func(b *testing.B) *problem.Instance { return benchInstance(b, problem.UCDDCP, 100) }, allMoves[:1]},
		{"EARLYWORK/m2/n60", func(b *testing.B) *problem.Instance { return benchGenomeInstance(b, problem.EARLYWORK, 60, 2) }, allMoves[:1]},
	}
	evaluators := []struct {
		name string
		mk   func(*problem.Instance) core.Evaluator
	}{
		{"full", core.NewEvaluator},
		{"delta", func(in *problem.Instance) core.Evaluator { return core.NewDeltaEvaluator(in) }},
	}
	const chainLen = 1000
	for _, c := range cases {
		for _, mv := range c.moves {
			for _, ev := range evaluators {
				b.Run(fmt.Sprintf("%s/%s/%s", c.name, mv.name, ev.name), func(b *testing.B) {
					in := c.in(b)
					cfg := sa.DefaultConfig()
					cfg.Neighborhood = mv.op
					cfg.T0 = core.InitialTemperature(core.NewEvaluator(in), xrand.New(benchSeed), 500)
					var chain *sa.Chain
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%chainLen == 0 {
							b.StopTimer()
							chain = sa.NewChain(cfg, ev.mk(in), xrand.NewStream(benchSeed, uint64(i/chainLen)))
							b.StartTimer()
						}
						chain.Step()
					}
				})
			}
		}
	}
}

// BenchmarkSolvePublicAPI times the end-to-end public entry point with
// the (scaled-down) paper defaults, the number a library user sees.
func BenchmarkSolvePublicAPI(b *testing.B) {
	in := duedate.PaperExample(duedate.CDD)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := duedate.Solve(in, duedate.Options{
			Grid: 1, Block: 16, Iterations: 50, TempSamples: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
