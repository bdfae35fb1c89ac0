package parallel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/sa"
)

// TestMetricsOffByDefault: the zero-value MetricsLevel must leave
// Result.Metrics nil on every driver — collection is strictly opt-in.
func TestMetricsOffByDefault(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	solvers := map[string]core.Solver{
		"AsyncSA":         &AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true},
		"SyncSA":          &SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, MarkovLen: 5, Levels: 6, Parallel: true},
		"GPUSA":           &GPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6},
		"PersistentGPUSA": &PersistentGPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6},
		"ParallelDPSO":    &ParallelDPSO{PSO: dpso.Config{Iterations: 30}, Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true},
		"GPUDPSO":         &GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 1, Block: 8, Seed: 6},
	}
	for name, s := range solvers {
		r, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Metrics != nil {
			t.Errorf("%s: Metrics non-nil with collection off", name)
		}
	}
}

// TestMetricsEvaluationsDeterministicAcrossWorkers: the metrics counters
// derive from the same fixed-seed trajectories as the results, so they
// must be bit-identical no matter how the chains are scheduled onto
// workers — and must match the engine's own evaluation count (which is
// pinned to the golden 1410 in golden_test.go).
func TestMetricsEvaluationsDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	run := func(parallelOK bool, workers int) *core.Metrics {
		r, err := (&AsyncSA{
			SA: goldenSA(), Ens: Ensemble{Chains: 10, Seed: 3, Workers: workers},
			Parallel: parallelOK, Metrics: core.MetricsCounters,
		}).Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics == nil {
			t.Fatal("Metrics nil with counters level on")
		}
		if r.Metrics.Evaluations != r.Evaluations {
			t.Fatalf("Metrics.Evaluations %d != Result.Evaluations %d", r.Metrics.Evaluations, r.Evaluations)
		}
		return r.Metrics
	}
	base := run(false, 0)
	if base.Evaluations != 1410 {
		t.Errorf("serial Evaluations = %d, want the golden 1410", base.Evaluations)
	}
	if base.FullEvaluations != base.Evaluations {
		t.Errorf("full %d, want Evaluations %d", base.FullEvaluations, base.Evaluations)
	}
	if base.Acceptances == 0 || base.Improvements == 0 {
		t.Errorf("counters empty: accepts=%d improvements=%d", base.Acceptances, base.Improvements)
	}
	for _, workers := range []int{1, 2, 7} {
		m := run(true, workers)
		if m.Evaluations != base.Evaluations ||
			m.FullEvaluations != base.FullEvaluations ||
			m.Acceptances != base.Acceptances ||
			m.Improvements != base.Improvements {
			t.Errorf("Workers=%d drifted: %+v vs serial %+v", workers, m, base)
		}
	}
}

// TestMetricsAgreeAcrossGPUSAEngines: the four-kernel and the persistent
// pipelines run the same per-thread trajectory, so their counters must be
// identical.
func TestMetricsAgreeAcrossGPUSAEngines(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	kernels, err := (&GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6,
		Metrics: core.MetricsCounters}).Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := (&PersistentGPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6,
		Metrics: core.MetricsCounters}).Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	km, pm := kernels.Metrics, persistent.Metrics
	if km == nil || pm == nil {
		t.Fatal("Metrics nil with counters level on")
	}
	if km.Evaluations != pm.Evaluations {
		t.Errorf("Evaluations differ: four-kernel %d, persistent %d", km.Evaluations, pm.Evaluations)
	}
	if km.Acceptances != pm.Acceptances || km.Improvements != pm.Improvements {
		t.Errorf("accept counters differ: four-kernel %d/%d, persistent %d/%d",
			km.Acceptances, km.Improvements, pm.Acceptances, pm.Improvements)
	}
	if km.FullEvaluations != pm.FullEvaluations || km.FullEvaluations != km.Evaluations {
		t.Errorf("full passes: four-kernel %d of %d evaluations, persistent %d",
			km.FullEvaluations, km.Evaluations, pm.FullEvaluations)
	}
}

// TestCPUSAScoresWithFullPass: every SA engine — the CPU ensembles and
// both GPU pipelines — scores every candidate with the full O(n) pass,
// so each full pass is one evaluation.
func TestCPUSAScoresWithFullPass(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	for name, s := range map[string]core.Solver{
		"AsyncSA":         &AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, Metrics: core.MetricsCounters},
		"SyncSA":          &SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, MarkovLen: 5, Levels: 6, Metrics: core.MetricsCounters},
		"GPUSA":           &GPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsCounters},
		"PersistentGPUSA": &PersistentGPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsCounters},
	} {
		r, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m := r.Metrics; m.FullEvaluations != m.Evaluations || m.Evaluations != r.Evaluations {
			t.Errorf("%s: %d full passes, %d metric evaluations, %d result evaluations; want all equal",
				name, m.FullEvaluations, m.Evaluations, r.Evaluations)
		}
	}
}

// TestGPUSAOneTempSampleCountsTwo: the T₀ estimate scores at least two
// samples, so both GPU SA engines run with TempSamples 1 exactly as with
// TempSamples 2 — same answer, same evaluation counts.
func TestGPUSAOneTempSampleCountsTwo(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	for name, mk := range map[string]func(cfg sa.Config) core.Solver{
		"GPUSA": func(cfg sa.Config) core.Solver {
			return &GPUSA{SA: cfg, Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsCounters}
		},
		"PersistentGPUSA": func(cfg sa.Config) core.Solver {
			return &PersistentGPUSA{SA: cfg, Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsCounters}
		},
	} {
		run := func(samples int) core.Result {
			cfg := goldenSA()
			cfg.TempSamples = samples
			r, err := mk(cfg).Solve(ctx, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return r
		}
		one, two := run(1), run(2)
		if one.BestCost != two.BestCost || one.Evaluations != two.Evaluations {
			t.Errorf("%s: TempSamples 1 gives cost %d after %d evaluations, 2 gives %d after %d",
				name, one.BestCost, one.Evaluations, two.BestCost, two.Evaluations)
		}
		if one.Metrics.FullEvaluations != two.Metrics.FullEvaluations {
			t.Errorf("%s: full evaluations %d with TempSamples 1, %d with 2",
				name, one.Metrics.FullEvaluations, two.Metrics.FullEvaluations)
		}
	}
}

// TestMetricsKernelPhases: at the kernels level, every phase a driver
// runs must show up with a positive count and nonzero host wall time, and
// GPU drivers must carry simulated device seconds on their kernel phases.
func TestMetricsKernelPhases(t *testing.T) {
	ctx := context.Background()
	in := benchInstanceCDD(15)
	cases := []struct {
		name      string
		solver    core.Solver
		phases    []string
		simPhases []string // phases that must also report device seconds
	}{
		{
			"AsyncSA",
			&AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"t0", "chain", "reduce"},
			nil,
		},
		{
			"SyncSA",
			&SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 4, Seed: 3}, MarkovLen: 5, Levels: 6, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"t0", "chain", "reduce", "broadcast"},
			nil,
		},
		{
			"GPUSA",
			&GPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsKernels},
			[]string{"t0", "init", "perturb", "fitness", "accept", "reduce"},
			[]string{"perturb", "fitness", "accept", "reduce"},
		},
		{
			"PersistentGPUSA",
			&PersistentGPUSA{SA: goldenSA(), Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsKernels},
			[]string{"t0", "persistent"},
			[]string{"persistent"},
		},
		{
			"ParallelDPSO",
			&ParallelDPSO{PSO: dpso.Config{Iterations: 30}, Ens: Ensemble{Chains: 4, Seed: 3}, Parallel: true, Metrics: core.MetricsKernels},
			[]string{"init", "update", "reduce"},
			nil,
		},
		{
			"GPUDPSO",
			&GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 1, Block: 8, Seed: 6, Metrics: core.MetricsKernels},
			[]string{"init", "update", "fitness", "pbest", "reduce"},
			[]string{"update", "fitness", "reduce"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, err := c.solver.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			m := r.Metrics
			if m == nil {
				t.Fatal("Metrics nil with kernels level on")
			}
			if m.Level != core.MetricsKernels {
				t.Errorf("Level = %v, want kernels", m.Level)
			}
			for _, name := range c.phases {
				ph := m.Phase(name)
				if ph.Count == 0 {
					t.Errorf("phase %q never counted; have %+v", name, m.Phases)
					continue
				}
				if ph.Wall <= 0 {
					t.Errorf("phase %q has zero wall time over %d runs", name, ph.Count)
				}
			}
			for _, name := range c.simPhases {
				if ph := m.Phase(name); ph.Sim <= 0 {
					t.Errorf("GPU phase %q reports no simulated device seconds", name)
				}
			}
		})
	}
}

// TestMetricsEnsembleAggregates: the ensemble runtime must report worker
// busy time and a utilization in (0, 1].
func TestMetricsEnsembleAggregates(t *testing.T) {
	r, err := (&AsyncSA{
		SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3, Workers: 2},
		Parallel: true, Metrics: core.MetricsCounters,
	}).Solve(context.Background(), benchInstanceCDD(15))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m == nil {
		t.Fatal("Metrics nil")
	}
	if m.Chains != 8 || m.Workers != 2 {
		t.Errorf("geometry: chains=%d workers=%d, want 8/2", m.Chains, m.Workers)
	}
	if m.WorkerBusy <= 0 {
		t.Error("no worker busy time recorded")
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization %f outside (0,1]", m.Utilization)
	}
	if m.InterruptedAt != "" {
		t.Errorf("uninterrupted run reports boundary %q", m.InterruptedAt)
	}
}

// TestMetricsInterruptedBoundary: a cancelled run must name the boundary
// it stopped at.
func TestMetricsInterruptedBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := (&AsyncSA{
		SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3},
		Parallel: true, Metrics: core.MetricsCounters,
	}).Solve(ctx, benchInstanceCDD(15))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if r.Metrics == nil || r.Metrics.InterruptedAt != "chain" {
		t.Errorf("InterruptedAt = %v, want \"chain\"", r.Metrics)
	}
}

// BenchmarkMetricsLevels measures the instrumentation overhead on the
// CPU hot path. The metrics-off run must stay within a few percent of the
// pre-instrumentation baseline (nil collector, plain int64 chain
// counters, no timestamps).
func BenchmarkMetricsLevels(b *testing.B) {
	in := benchInstanceCDD(40)
	for _, lvl := range []core.MetricsLevel{core.MetricsOff, core.MetricsCounters, core.MetricsKernels} {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := (&AsyncSA{
					SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 3},
					Parallel: false, Metrics: lvl,
				}).Solve(context.Background(), in)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
