package verify

import (
	"errors"
	"fmt"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/lpref"
	"repro/internal/perm"
	"repro/internal/problem"
	"repro/internal/ucddcp"
	"repro/internal/xrand"
)

// This file implements the two oracle layers of the subsystem:
//
//   - sequence-cost agreement: for a fixed sequence, every evaluator in
//     the repository — the fused full passes, the cost-only pass, the
//     host Evaluators, the incremental delta evaluators (both via Reset
//     and via Propose), the materialized-schedule re-evaluation, and the
//     per-sequence LP reference — must report the same exact cost;
//
//   - the exact chain: brute-force enumeration, the V-shape subset scan
//     (where applicable) and every registered driver must order as
//     brute == subset ≤ driver, with each driver's reported cost honest
//     against re-evaluation of its returned sequence.

// NamedCost is one sequence evaluator under differential test. Cost
// returns the optimal objective of the sequence, or an error if the
// evaluator cannot handle the instance (which is itself a discrepancy for
// the standard evaluators — they are total over valid instances).
type NamedCost struct {
	Name string
	Cost func(in *problem.Instance, seq []int) (int64, error)
}

// StandardEvaluators returns the evaluator chain for the instance's kind
// and machine count. The first entry is the reference the others are
// compared against. Genome-coded instances (parallel machines, EARLYWORK)
// get the machine-aware chain; the single-machine paper problems keep
// their original chains, LP reference included.
func StandardEvaluators(in *problem.Instance) []NamedCost {
	if in.GenomeCoded() {
		return genomeEvaluators()
	}
	if in.Kind == problem.UCDDCP {
		return ucddcpEvaluators()
	}
	return cddEvaluators()
}

// genomeEvaluators is the agreement chain over delimiter genomes: the
// raw genome scorer as reference, the batch evaluator on all four faces,
// the machine-granular delta evaluator via both Reset and Propose, and
// the materialized multi-machine schedule re-evaluated from first
// principles.
func genomeEvaluators() []NamedCost {
	return []NamedCost{
		{Name: "core.GenomeCostArrays", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			s := core.NewSoAInstance(in)
			comp := make([]int64, s.N)
			return core.GenomeCostArrays(seq, s, comp), nil
		}},
		{Name: "core.Evaluator", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return core.NewEvaluator(in).Cost(seq), nil
		}},
		{Name: "machineDelta.Reset", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return core.NewDeltaEvaluator(in).Reset(seq), nil
		}},
		{Name: "machineDelta.Propose", Cost: deltaProposeCost},
		{Name: "core.BatchEvaluator.Cost", Cost: batchCost},
		{Name: "batch.CostRows", Cost: batchRowsCost},
		{Name: "batch.CostSeqs", Cost: batchSeqsCost},
		{Name: "batch.FitnessRows32", Cost: batchFitness32Cost},
		{Name: "genome-schedule.Cost", Cost: genomeScheduleCost},
	}
}

// genomeScheduleCost materializes the genome into the fully timed
// multi-machine schedule and re-evaluates it from first principles,
// checking the structural invariants (assignment bounds, per-machine
// starts) on the way.
func genomeScheduleCost(in *problem.Instance, seq []int) (int64, error) {
	s := core.GenomeSchedule(in, append([]int(nil), seq...))
	if err := s.Validate(in); err != nil {
		return 0, fmt.Errorf("genome schedule invalid: %w", err)
	}
	return s.Cost(in), nil
}

func cddEvaluators() []NamedCost {
	return []NamedCost{
		{Name: "cdd.CostArrays", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			p, a, b := cdd.ParamArrays(in)
			return cdd.CostArrays(seq, p, a, b, in.D), nil
		}},
		{Name: "cdd.OptimizeArrays", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			p, a, b := cdd.ParamArrays(in)
			comp := make([]int64, len(seq))
			c, _, _, _ := cdd.OptimizeArrays(seq, p, a, b, in.D, comp)
			return c, nil
		}},
		{Name: "core.Evaluator", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return core.NewEvaluator(in).Cost(seq), nil
		}},
		{Name: "cdd.Delta.Reset", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return cdd.NewDeltaEvaluator(in).Reset(seq), nil
		}},
		{Name: "cdd.Delta.Propose", Cost: deltaProposeCost},
		{Name: "core.BatchEvaluator.Cost", Cost: batchCost},
		{Name: "batch.CostRows", Cost: batchRowsCost},
		{Name: "batch.CostSeqs", Cost: batchSeqsCost},
		{Name: "batch.FitnessRows32", Cost: batchFitness32Cost},
		{Name: "schedule.Cost", Cost: scheduleCost},
		{Name: "lpref", Cost: lpCost},
	}
}

func ucddcpEvaluators() []NamedCost {
	return []NamedCost{
		{Name: "ucddcp.Evaluator", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return ucddcp.NewEvaluator(in).Cost(seq), nil
		}},
		{Name: "ucddcp.OptimizeSequence", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return ucddcp.OptimizeSequence(in, seq).Cost, nil
		}},
		{Name: "core.Evaluator", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return core.NewEvaluator(in).Cost(seq), nil
		}},
		{Name: "machineDelta.Reset", Cost: func(in *problem.Instance, seq []int) (int64, error) {
			return core.NewDeltaEvaluator(in).Reset(seq), nil
		}},
		{Name: "machineDelta.Propose", Cost: deltaProposeCost},
		{Name: "core.BatchEvaluator.Cost", Cost: batchCost},
		{Name: "batch.CostRows", Cost: batchRowsCost},
		{Name: "batch.CostSeqs", Cost: batchSeqsCost},
		{Name: "batch.FitnessRows32", Cost: batchFitness32Cost},
		{Name: "schedule.Cost", Cost: scheduleCost},
		{Name: "lpref", Cost: lpCost},
	}
}

// The batch evaluators under differential test. Each prices seq through
// the batch evaluation core as multiple rows of one batch (with a
// rotated decoy row between two copies), so every batch face
// cross-checks itself for row independence on every trial before the
// cost joins the agreement chain.

// batchCost is the batch of one: BatchEvaluator's Evaluator face.
func batchCost(in *problem.Instance, seq []int) (int64, error) {
	return core.NewBatchEvaluator(in).Cost(seq), nil
}

// batchTriple lays out [seq, rotate(seq), seq]: the rotated middle row
// checks that batch rows are scored independently (rows 0 and 2 must
// agree with each other and with the single-row evaluators).
func batchTriple(seq []int) ([]int, [][]int) {
	n := len(seq)
	rows := make([]int, 3*n)
	copy(rows[:n], seq)
	for i := range seq {
		rows[n+i] = seq[(i+1)%n]
	}
	copy(rows[2*n:], seq)
	return rows, [][]int{rows[:n], rows[n : 2*n], rows[2*n:]}
}

// batchRowsCost prices seq through the row-major batch kernel.
func batchRowsCost(in *problem.Instance, seq []int) (int64, error) {
	rows, _ := batchTriple(seq)
	costs := make([]int64, 3)
	core.NewBatchEvaluator(in).CostRows(rows, costs)
	if costs[0] != costs[2] {
		return 0, fmt.Errorf("pair-path cost %d != tail-path cost %d on seq %v", costs[0], costs[2], seq)
	}
	return costs[0], nil
}

// batchSeqsCost prices seq through the slice-of-sequences batch kernel.
func batchSeqsCost(in *problem.Instance, seq []int) (int64, error) {
	_, seqs := batchTriple(seq)
	costs := make([]int64, 3)
	core.NewBatchEvaluator(in).CostSeqs(seqs, costs)
	if costs[0] != costs[2] {
		return 0, fmt.Errorf("pair-path cost %d != tail-path cost %d on seq %v", costs[0], costs[2], seq)
	}
	return costs[0], nil
}

// batchFitness32Cost prices seq through the device-row fitness kernel
// (FitnessRow32, the per-thread scoring step of the simulated GPU) and
// additionally pins its abstract op counts to the single-row core — the
// quantity the simulated GPU converts into cycle charges, so a mismatch
// would silently shift every engine's SimSeconds. The evaluator scores a
// rotated row in between, so the second pass must not depend on what its
// scratch row held.
func batchFitness32Cost(in *problem.Instance, seq []int) (int64, error) {
	n := len(seq)
	row := make([]int32, n)
	rotated := make([]int32, n)
	for i, v := range seq {
		row[i] = int32(v)
		rotated[i] = int32(seq[(i+1)%n])
	}
	be := core.NewBatchEvaluator(in)
	cost, ops := be.FitnessRow32(row)
	be.FitnessRow32(rotated)
	if again, againOps := be.FitnessRow32(row); again != cost || againOps != ops {
		return 0, fmt.Errorf("first pass (cost %d, ops %d) != repeat pass (cost %d, ops %d) on seq %v",
			cost, ops, again, againOps, seq)
	}
	s := be.SoA()
	comp := make([]int64, n)
	var wantCost int64
	var wantOps int
	switch {
	case in.GenomeCoded():
		wantCost, wantOps = core.GenomeFitnessArrays(seq, s, comp)
	case in.Kind == problem.UCDDCP:
		wantCost, _, _, wantOps = ucddcp.OptimizeArrays(seq, s.P, s.M, s.Alpha, s.Beta, s.Gamma, s.D, comp, nil)
	default:
		wantCost, _, _, wantOps = cdd.OptimizeArrays(seq, s.P, s.Alpha, s.Beta, s.D, comp)
	}
	if cost != wantCost || wantOps != ops {
		return 0, fmt.Errorf("batch (cost %d, ops %d) != single-row core (cost %d, ops %d) on seq %v",
			cost, ops, wantCost, wantOps, seq)
	}
	return cost, nil
}

// deltaProposeCost prices seq through the incremental Propose path from a
// rotated base sequence, so the correction machinery (not just the Reset
// full pass) is under differential test.
func deltaProposeCost(in *problem.Instance, seq []int) (int64, error) {
	n := len(seq)
	dl := core.NewDeltaEvaluator(in)
	base := make([]int, n)
	positions := make([]int, n)
	for i := range seq {
		base[i] = seq[(i+1)%n]
		positions[i] = i
	}
	dl.Reset(base)
	return dl.Propose(seq, positions), nil
}

// scheduleCost materializes the optimally timed (and compressed) schedule
// and re-evaluates it from first principles via problem.Schedule.Cost,
// checking the structural invariants on the way: the schedule validates
// (permutation, start ≥ 0, compressions within [0, P−M]) and, when the
// optimizer anchors a due-date job at 1-based position r, that job
// completes exactly at d in the final schedule.
func scheduleCost(in *problem.Instance, seq []int) (int64, error) {
	var s problem.Schedule
	var cost int64
	var dueJob int
	if in.Kind == problem.UCDDCP {
		r := ucddcp.OptimizeSequence(in, seq)
		s = problem.Schedule{Seq: seq, Start: r.Start, X: r.X}
		cost, dueJob = r.Cost, r.DueJob
	} else {
		r := cdd.OptimizeSequence(in, seq)
		s = problem.Schedule{Seq: seq, Start: r.Start}
		cost, dueJob = r.Cost, r.DueJob
	}
	if err := s.Validate(in); err != nil {
		return 0, fmt.Errorf("optimized schedule invalid: %w", err)
	}
	if dueJob > 0 {
		if c := s.Completions(in)[dueJob-1]; c != in.D {
			return 0, fmt.Errorf("due-date job at position %d completes at %d, not d=%d", dueJob, c, in.D)
		}
	} else if s.Start != 0 {
		return 0, fmt.Errorf("no due-date job anchored but start=%d (Hall–Kubiak–Sethi: start 0 or a job at d)", s.Start)
	}
	if got := s.Cost(in); got != cost {
		return 0, fmt.Errorf("schedule re-evaluates to %d, optimizer claimed %d", got, cost)
	}
	return cost, nil
}

// lpCost solves the per-sequence LP of Section III and rounds the optimum
// (exact for the all-integer instances every generator produces).
func lpCost(in *problem.Instance, seq []int) (int64, error) {
	r, err := lpref.Solve(in, seq)
	if err != nil {
		return 0, err
	}
	return r.RoundedCost(), nil
}

// CheckSequenceAgreement runs every evaluator on (in, seq) and returns one
// discrepancy per evaluator that errors or disagrees with the first
// (reference) evaluator. Callers may append extra evaluators — the
// mutation smoke tests inject deliberately broken ones to prove the chain
// has teeth.
func CheckSequenceAgreement(in *problem.Instance, seq []int, extra ...NamedCost) []Discrepancy {
	evals := append(StandardEvaluators(in), extra...)
	var ds []Discrepancy
	ref, err := evals[0].Cost(in, seq)
	if err != nil {
		return []Discrepancy{{
			Check: "sequence-agreement", Instance: in.Name, Driver: evals[0].Name,
			Detail: fmt.Sprintf("reference evaluator failed on seq %v: %v", seq, err),
		}}
	}
	for _, e := range evals[1:] {
		got, err := e.Cost(in, seq)
		if err != nil {
			ds = append(ds, Discrepancy{
				Check: "sequence-agreement", Instance: in.Name, Driver: e.Name,
				Detail: fmt.Sprintf("failed on seq %v: %v", seq, err),
			})
			continue
		}
		if got != ref {
			ds = append(ds, Discrepancy{
				Check: "sequence-agreement", Instance: in.Name, Driver: e.Name,
				Detail: fmt.Sprintf("cost %d != reference %s cost %d on seq %v", got, evals[0].Name, ref, seq),
			})
		}
	}
	return ds
}

// deltaWalkCheck drives the propose/commit protocol through a random walk
// of small moves (the metaheuristic hot path) and cross-checks every
// proposal against a stateless full evaluation. On genome-coded instances
// the walk interleaves the assignment moves (perm.JobReassign,
// perm.CrossMachineSwap) with the generic rotate move, so the
// machine-granular delta evaluator is priced over exactly the windows
// those operators report.
func deltaWalkCheck(in *problem.Instance, rng *xrand.XORWOW, steps int) []Discrepancy {
	n := in.GenomeLen()
	dl := core.NewDeltaEvaluator(in)
	full := core.NewEvaluator(in)
	base := problem.IdentitySequence(n)
	dl.Reset(base)
	cand := make([]int, n)
	var ops *perm.Ops
	if in.GenomeCoded() {
		ops = perm.NewOps(n)
	}
	var ds []Discrepancy
	for s := 0; s < steps; s++ {
		copy(cand, base)
		var pos []int
		switch {
		case ops != nil && s%3 == 1:
			lo, hi := perm.JobReassign(rng, cand, in.N())
			for p := lo; p <= hi; p++ {
				pos = append(pos, p)
			}
		case ops != nil && s%3 == 2:
			i, j := ops.CrossMachineSwap(rng, cand, in.N())
			if i != j {
				pos = []int{i, j}
			}
		default:
			// k-position move: 2 (swap) or 3 (rotate) touched positions.
			k := 2 + rng.Intn(2)
			pos = make([]int, 0, k)
			for len(pos) < k && len(pos) < n {
				pos = append(pos, rng.Intn(n))
			}
			if len(pos) >= 2 {
				first := cand[pos[0]]
				for i := 0; i < len(pos)-1; i++ {
					cand[pos[i]] = cand[pos[i+1]]
				}
				cand[pos[len(pos)-1]] = first
			}
		}
		got := dl.Propose(cand, pos)
		want := full.Cost(cand)
		if got != want {
			ds = append(ds, Discrepancy{
				Check: "delta-walk", Instance: in.Name,
				Detail: fmt.Sprintf("step %d: Propose=%d, full=%d (base %v cand %v pos %v)", s, got, want, base, cand, pos),
			})
			return ds // the cache is suspect; stop the walk
		}
		if rng.Intn(2) == 0 {
			dl.Commit()
			copy(base, cand)
		}
	}
	return ds
}

// ExactBounds holds the exact optima available for an instance.
type ExactBounds struct {
	// Cost is the proven global optimum; valid only when Known.
	Cost  int64
	Known bool
	// Brute/Subset/DP record which oracles produced a result.
	Brute, Subset, DP bool
}

// CheckExactOracles runs the applicable exact solvers (brute force within
// bruteN, the V-shape subset scan within subsetN for unrestricted CDD) and
// cross-checks them: where both apply they must agree exactly — the
// weighted V-shape dominance property the subset oracle is built on.
// Oversize instances must be rejected with the typed exact.ErrTooLarge
// guard rather than hanging; any other failure is a discrepancy.
func CheckExactOracles(in *problem.Instance, bruteN, subsetN int) (ExactBounds, []Discrepancy) {
	var eb ExactBounds
	var ds []Discrepancy
	// Brute enumerates genomes, so its size gate is the genome length —
	// on parallel-machine instances that enumeration covers every
	// assignment of jobs to machines crossed with every per-machine order.
	n := in.GenomeLen()

	var bruteCost int64
	if n <= bruteN {
		r, err := exact.Brute(in)
		if err != nil {
			ds = append(ds, Discrepancy{
				Check: "oracle-chain", Instance: in.Name, Driver: "exact.Brute",
				Detail: fmt.Sprintf("failed on n=%d: %v", n, err),
			})
		} else {
			eb.Cost, eb.Known, eb.Brute = r.Cost, true, true
			bruteCost = r.Cost
		}
	} else if n > exact.MaxBruteN {
		// Past the hard limit the size guard must fire with the typed
		// sentinel instead of starting an n! enumeration that never ends.
		if _, err := exact.Brute(in); !errors.Is(err, exact.ErrTooLarge) {
			ds = append(ds, Discrepancy{
				Check: "oracle-chain", Instance: in.Name, Driver: "exact.Brute",
				Detail: fmt.Sprintf("n=%d beyond MaxBruteN returned %v, want exact.ErrTooLarge", n, err),
			})
		}
	}

	if in.Kind == problem.CDD && in.MachineCount() == 1 && n <= subsetN {
		r, err := exact.SubsetCDD(in)
		if err != nil {
			ds = append(ds, Discrepancy{
				Check: "oracle-chain", Instance: in.Name, Driver: "exact.SubsetCDD",
				Detail: fmt.Sprintf("failed on n=%d: %v", n, err),
			})
		} else {
			eb.Subset = true
			if eb.Brute && r.Cost != bruteCost {
				ds = append(ds, Discrepancy{
					Check: "v-shape-dominance", Instance: in.Name, Driver: "exact.SubsetCDD",
					Detail: fmt.Sprintf("subset optimum %d != brute optimum %d", r.Cost, bruteCost),
				})
			}
			if !eb.Known || r.Cost < eb.Cost {
				eb.Cost, eb.Known = r.Cost, true
			}
		}
	}

	// The pseudo-polynomial DP: applicable to single-machine CDD and to
	// EARLYWORK at any machine count, but only over its provable domain
	// (agreeable ratio orders) and state budget — both declines are typed
	// and expected, so only other errors are discrepancies. Where the DP
	// runs it must agree with any enumeration optimum exactly, and its
	// certificate sequence must re-evaluate to the claimed cost; past the
	// enumeration limits it becomes the proven optimum the drivers race.
	if (in.Kind == problem.CDD && in.MachineCount() == 1) || in.Kind == problem.EARLYWORK {
		r, err := exact.SolveDP(in)
		switch {
		case errors.Is(err, exact.ErrInapplicable) || errors.Is(err, exact.ErrTooLarge):
			// Outside the DP's domain or budget: contract behavior.
		case err != nil:
			ds = append(ds, Discrepancy{
				Check: "oracle-chain", Instance: in.Name, Driver: "exact.SolveDP",
				Detail: fmt.Sprintf("failed on n=%d: %v", n, err),
			})
		default:
			eb.DP = true
			if honest := core.NewEvaluator(in).Cost(r.Seq); honest != r.Cost {
				ds = append(ds, Discrepancy{
					Check: "oracle-chain", Instance: in.Name, Driver: "exact.SolveDP",
					Detail: fmt.Sprintf("certificate cost %d, sequence re-evaluates to %d", r.Cost, honest),
				})
			}
			if eb.Known && r.Cost != eb.Cost {
				ds = append(ds, Discrepancy{
					Check: "exact-dp", Instance: in.Name, Driver: "exact.SolveDP",
					Detail: fmt.Sprintf("DP optimum %d != enumeration optimum %d", r.Cost, eb.Cost),
				})
			}
			if !eb.Known || r.Cost < eb.Cost {
				eb.Cost, eb.Known = r.Cost, true
			}
		}
	}
	return eb, ds
}
