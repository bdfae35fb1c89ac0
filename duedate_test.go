package duedate_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	duedate "repro"
)

func TestPaperExampleThroughPublicAPI(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	sched, cost, err := duedate.OptimizeSequence(in, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 81 {
		t.Errorf("CDD paper example cost = %d, want 81", cost)
	}
	if sched.Start != 5 {
		t.Errorf("start = %d, want 5", sched.Start)
	}
	if got := sched.Cost(in); got != 81 {
		t.Errorf("schedule re-evaluates to %d", got)
	}

	inU := duedate.PaperExample(duedate.UCDDCP)
	_, costU, err := duedate.OptimizeSequence(inU, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if costU != 77 {
		t.Errorf("UCDDCP paper example cost = %d, want 77", costU)
	}
}

func TestSolveDefaultsOnSmallInstance(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	res, err := duedate.Solve(in, duedate.Options{
		Iterations: 100, Grid: 1, Block: 16, TempSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("result cost %d, sequence evaluates to %d", res.BestCost, got)
	}
	if res.BestCost > 81 {
		t.Errorf("GPU SA best %d, expected ≤ 81", res.BestCost)
	}
	if res.SimSeconds <= 0 {
		t.Error("GPU engine reported no simulated time")
	}
}

// pairingHasKind reports whether the pairing declares the problem kind;
// capability-scoped drivers (EXACT-DP) sit out the kinds they lack.
func pairingHasKind(p duedate.Pairing, k duedate.Kind) bool {
	for _, have := range p.Kinds {
		if have == k {
			return true
		}
	}
	return false
}

func TestSolveAllAlgorithmEngineCombos(t *testing.T) {
	in := duedate.PaperExample(duedate.UCDDCP)
	for _, c := range duedate.Pairings() {
		c := c
		t.Run(c.Algorithm.String()+"/"+c.Engine.String(), func(t *testing.T) {
			if !pairingHasKind(c, duedate.UCDDCP) {
				t.Skipf("%v does not declare UCDDCP", c.Algorithm)
			}
			res, err := duedate.Solve(in, duedate.Options{
				Algorithm: c.Algorithm, Engine: c.Engine,
				Iterations: 40, Grid: 1, Block: 8, TempSamples: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := duedate.Cost(in, res.BestSeq)
			if err != nil {
				t.Fatal(err)
			}
			if got != res.BestCost {
				t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
			}
		})
	}
}

// TestFacadeMetrics: every registered pairing must populate
// Result.Metrics when asked (with an evaluation count that matches the
// result's) and leave it nil at the default level.
func TestFacadeMetrics(t *testing.T) {
	paper := duedate.PaperExample(duedate.CDD)
	// The paper example's general asymmetric weights sit outside the DP's
	// agreeable domain, so the exact pairing gets a symmetric-weight
	// unrestricted instance it can certify.
	agreeable, err := duedate.NewCDDInstance("agreeable-metrics",
		[]int{3, 1, 4, 2, 5, 2, 6}, []int{2, 1, 3, 2, 4, 1, 5}, []int{2, 1, 3, 2, 4, 1, 5}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range duedate.Pairings() {
		c := c
		t.Run(c.Algorithm.String()+"/"+c.Engine.String(), func(t *testing.T) {
			in := paper
			if c.Algorithm == duedate.ExactDP {
				in = agreeable
			}
			base := duedate.Options{
				Algorithm: c.Algorithm, Engine: c.Engine,
				Iterations: 40, Grid: 1, Block: 8, TempSamples: 50, Seed: 5,
			}
			off, err := duedate.Solve(in, base)
			if err != nil {
				t.Fatal(err)
			}
			if off.Metrics != nil {
				t.Error("Metrics non-nil at the default (off) level")
			}
			on := base
			on.Metrics = duedate.MetricsCounters
			res, err := duedate.Solve(in, on)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m == nil {
				t.Fatal("Metrics nil with counters level requested")
			}
			if m.Level != duedate.MetricsCounters {
				t.Errorf("Level = %v, want counters", m.Level)
			}
			if m.Evaluations != res.Evaluations {
				t.Errorf("Metrics.Evaluations %d != Result.Evaluations %d", m.Evaluations, res.Evaluations)
			}
			if res.BestCost != off.BestCost || res.Evaluations != off.Evaluations {
				t.Errorf("metrics collection changed the run: %d/%d vs %d/%d",
					res.BestCost, res.Evaluations, off.BestCost, off.Evaluations)
			}
			if m.Chains <= 0 || m.Workers <= 0 {
				t.Errorf("geometry unset: chains=%d workers=%d", m.Chains, m.Workers)
			}
		})
	}
}

func TestSolveRejectsGPUBaselines(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	for _, algo := range []duedate.Algorithm{duedate.TA, duedate.ES} {
		_, err := duedate.Solve(in, duedate.Options{Algorithm: algo, Engine: duedate.EngineGPU})
		if !errors.Is(err, duedate.ErrUnsupportedPairing) {
			t.Errorf("%v on GPU: err = %v, want ErrUnsupportedPairing", algo, err)
		}
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	bad := duedate.PaperExample(duedate.CDD)
	bad.D = -4
	if _, err := duedate.Solve(bad, duedate.Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestSolveRejectsCostOverflow: the ensemble and GPU reductions pack a
// cost and a chain index into one int64, so an instance whose objective
// can reach problem.CostLimit (2^43) must be rejected before any engine
// runs. This one's optimum is 91,500,000,000,000 (sequence [0 2 1]);
// unchecked, cpu-parallel reported 3539069777920 and gpu a negative cost.
func TestSolveRejectsCostOverflow(t *testing.T) {
	in := &duedate.Instance{Name: "overflow", Kind: duedate.CDD, D: 0, Jobs: []duedate.Job{
		{P: 1e6, M: 1e6, Alpha: 1e7, Beta: 1e7},
		{P: 2e6, M: 2e6, Alpha: 1e7, Beta: 1.2e7},
		{P: 1.5e6, M: 1.5e6, Alpha: 1e7, Beta: 1.1e7},
	}}
	for _, p := range duedate.Pairings() {
		opts := duedate.Options{Algorithm: p.Algorithm, Engine: p.Engine, Grid: 1, Block: 8, Iterations: 50, TempSamples: 20}
		if res, err := duedate.SolveContext(context.Background(), in, opts); err == nil {
			t.Errorf("%v/%v: accepted, BestCost %d", p.Algorithm, p.Engine, res.BestCost)
		}
	}
}

// TestSolveHonestCostBelowLimit: an instance whose objective bound sits
// just under the limit (Σ max(α, β) = 2^31 − 1 times ΣP = 4096) solves
// to its exact optimum on the CPU ensemble and the GPU pipeline.
func TestSolveHonestCostBelowLimit(t *testing.T) {
	in, err := duedate.NewCDDInstance("below-limit", []int{1024, 2048, 1024},
		[]int{715827882, 715827883, 715827882}, []int{715827882, 715827883, 715827882}, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := int64(-1)
	for _, seq := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		c, err := duedate.Cost(in, seq)
		if err != nil {
			t.Fatal(err)
		}
		if best < 0 || c < best {
			best = c
		}
	}
	if best < 1<<42 {
		t.Fatalf("optimum %d is not near the limit", best)
	}
	for _, e := range []duedate.Engine{duedate.EngineCPUParallel, duedate.EngineGPU} {
		res, err := duedate.Solve(in, duedate.Options{Engine: e, Grid: 1, Block: 8, Iterations: 50, TempSamples: 20})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if c, _ := duedate.Cost(in, res.BestSeq); res.BestCost != best || c != best {
			t.Errorf("%v: BestCost %d for %v (exact cost %d), want the optimum %d", e, res.BestCost, res.BestSeq, c, best)
		}
	}
}

func TestOptimizeSequenceRejections(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	if _, _, err := duedate.OptimizeSequence(in, []int{0, 1, 2}); !errors.Is(err, duedate.ErrInvalidSequence) {
		t.Errorf("short sequence: err = %v, want ErrInvalidSequence", err)
	}
	if _, _, err := duedate.OptimizeSequence(in, []int{0, 0, 1, 2, 3}); !errors.Is(err, duedate.ErrInvalidSequence) {
		t.Errorf("non-permutation: err = %v, want ErrInvalidSequence", err)
	}
}

func TestBenchmarkGenerators(t *testing.T) {
	cddIns, err := duedate.GenerateCDDBenchmark(20, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cddIns) != 8 {
		t.Errorf("CDD benchmark size = %d, want 8 (2 records × 4 h)", len(cddIns))
	}
	uIns, err := duedate.GenerateUCDDCPBenchmark(20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(uIns) != 3 {
		t.Errorf("UCDDCP benchmark size = %d, want 3", len(uIns))
	}
}

func TestEnumStrings(t *testing.T) {
	if duedate.SA.String() != "SA" || duedate.DPSO.String() != "DPSO" {
		t.Error("Algorithm.String broken")
	}
	if duedate.EngineGPU.String() != "gpu" {
		t.Error("Engine.String broken")
	}
	if !strings.Contains(duedate.Algorithm(9).String(), "9") {
		t.Error("unknown algorithm formatting broken")
	}
	if !strings.Contains(duedate.Engine(9).String(), "9") {
		t.Error("unknown engine formatting broken")
	}
}

func TestSolvePersistentEngine(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	opts := duedate.Options{Iterations: 80, Grid: 1, Block: 8, TempSamples: 50}
	normal, err := duedate.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Persistent = true
	pers, err := duedate.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if normal.BestCost != pers.BestCost {
		t.Errorf("persistent engine differs: %d vs %d", pers.BestCost, normal.BestCost)
	}
	if pers.SimSeconds >= normal.SimSeconds {
		t.Errorf("persistent engine not faster: %g vs %g", pers.SimSeconds, normal.SimSeconds)
	}
}

func TestOptionsRejectNegativeGeometry(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	cases := []duedate.Options{
		{Grid: -1, Block: 8},
		{Grid: 1, Block: -8},
		{Engine: duedate.EngineCPUParallel, Workers: -2},
		{Grid: 2048, Block: 512},
	}
	for _, o := range cases {
		if _, err := duedate.Solve(in, o); !errors.Is(err, duedate.ErrInvalidOptions) {
			t.Errorf("options %+v: err = %v, want ErrInvalidOptions", o, err)
		}
	}
}

func TestSeedZeroSentinelEqualsSeedOne(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	base := duedate.Options{Iterations: 60, Grid: 1, Block: 8, TempSamples: 50}
	zero := base
	zero.Seed = 0
	one := base
	one.Seed = 1
	a, err := duedate.Solve(in, zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := duedate.Solve(in, one)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Errorf("seed 0 (%d/%d) differs from seed 1 (%d/%d)",
			a.BestCost, a.Evaluations, b.BestCost, b.Evaluations)
	}
}

func TestWorkersOptionKeepsDeterminism(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	base := duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel,
		Iterations: 60, Grid: 1, Block: 16, TempSamples: 50, Seed: 4,
	}
	limited := base
	limited.Workers = 1
	a, err := duedate.Solve(in, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := duedate.Solve(in, limited)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Errorf("Workers changed the result: %d/%d vs %d/%d",
			a.BestCost, a.Evaluations, b.BestCost, b.Evaluations)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := duedate.SolveContext(ctx, in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel,
		Iterations: 1 << 20, Grid: 4, Block: 16, TempSamples: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled SolveContext did not report Interrupted")
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("interrupted best reported %d, evaluates to %d", res.BestCost, got)
	}
}

func TestDeadlineOptionInterrupts(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	res, err := duedate.Solve(in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial,
		Iterations: 1 << 20, Grid: 2, Block: 16, TempSamples: 50,
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expired Deadline did not report Interrupted")
	}
	got, err := duedate.Cost(in, res.BestSeq)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.BestCost {
		t.Errorf("interrupted best reported %d, evaluates to %d", res.BestCost, got)
	}
}

func TestProgressThroughFacade(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	var snaps []duedate.Snapshot
	res, err := duedate.Solve(in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial,
		Iterations: 60, Grid: 1, Block: 8, TempSamples: 50,
		Progress: func(s duedate.Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots received")
	}
	last := snaps[len(snaps)-1]
	if last.BestCost != res.BestCost {
		t.Errorf("final snapshot cost %d, result %d", last.BestCost, res.BestCost)
	}
	if last.Evaluations != res.Evaluations {
		t.Errorf("final snapshot evaluations %d, result %d", last.Evaluations, res.Evaluations)
	}
}

func TestBaselinesHonorParallelEngine(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	for _, algo := range []duedate.Algorithm{duedate.TA, duedate.ES} {
		serial, err := duedate.Solve(in, duedate.Options{
			Algorithm: algo, Engine: duedate.EngineCPUSerial,
			Iterations: 50, Grid: 1, Block: 8, TempSamples: 50, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := duedate.Solve(in, duedate.Options{
			Algorithm: algo, Engine: duedate.EngineCPUParallel,
			Iterations: 50, Grid: 1, Block: 8, TempSamples: 50, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if serial.BestCost != par.BestCost || serial.Evaluations != par.Evaluations {
			t.Errorf("%v: serial %d/%d != parallel %d/%d (chain i must own stream i on both engines)",
				algo, serial.BestCost, serial.Evaluations, par.BestCost, par.Evaluations)
		}
	}
}

// TestSolveContextOptionValidation is the table-driven contract test of
// the facade's option gate: every invalid Options value must be rejected
// by SolveContext itself — before any engine runs — with an error that
// satisfies errors.Is(err, ErrInvalidOptions), across every algorithm.
func TestSolveContextOptionValidation(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	cases := []struct {
		name string
		opts duedate.Options
	}{
		{"negative-grid", duedate.Options{Grid: -1}},
		{"negative-block", duedate.Options{Block: -192}},
		{"negative-workers", duedate.Options{Engine: duedate.EngineCPUSerial, Workers: -1}},
		{"negative-grid-cpu", duedate.Options{Engine: duedate.EngineCPUParallel, Grid: -4}},
		{"all-negative", duedate.Options{Grid: -1, Block: -1, Workers: -1}},
	}
	for _, tc := range cases {
		for _, algo := range []duedate.Algorithm{duedate.SA, duedate.DPSO, duedate.TA, duedate.ES} {
			o := tc.opts
			o.Algorithm = algo
			_, err := duedate.SolveContext(context.Background(), in, o)
			if !errors.Is(err, duedate.ErrInvalidOptions) {
				t.Errorf("%s/%v: err = %v, want ErrInvalidOptions", tc.name, algo, err)
			}
			// Option validation must precede pairing dispatch: a bad
			// option on an unregistered pairing still reports the option.
			if errors.Is(err, duedate.ErrUnsupportedPairing) {
				t.Errorf("%s/%v: pairing error before option validation", tc.name, algo)
			}
		}
	}
}

// TestSolveContextSeedZeroSentinel: the Seed-0 "unset" sentinel must be
// rewritten to 1 on the SolveContext path too, for every engine class —
// bit-identical runs, not merely equal costs.
func TestSolveContextSeedZeroSentinel(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	engines := []duedate.Engine{duedate.EngineGPU, duedate.EngineCPUParallel, duedate.EngineCPUSerial}
	for _, eng := range engines {
		base := duedate.Options{Engine: eng, Iterations: 40, Grid: 1, Block: 4, TempSamples: 20}
		zero := base
		zero.Seed = 0
		one := base
		one.Seed = 1
		a, err := duedate.SolveContext(context.Background(), in, zero)
		if err != nil {
			t.Fatal(err)
		}
		b, err := duedate.SolveContext(context.Background(), in, one)
		if err != nil {
			t.Fatal(err)
		}
		if a.BestCost != b.BestCost || a.Evaluations != b.Evaluations ||
			!equalSeq(a.BestSeq, b.BestSeq) {
			t.Errorf("%v: seed 0 run (cost %d, evals %d, seq %v) differs from seed 1 (cost %d, evals %d, seq %v)",
				eng, a.BestCost, a.Evaluations, a.BestSeq, b.BestCost, b.Evaluations, b.BestSeq)
		}
	}
}

func equalSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
