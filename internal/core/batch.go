package core

import (
	"repro/internal/cdd"
	"repro/internal/problem"
)

// This file is the batch evaluation layer: a structure-of-arrays
// snapshot of the instance (SoAInstance) plus an evaluator that scores
// whole populations of sequences per call (BatchEvaluator). Every face
// scores each row with the kind's exact single-row core — the same
// segmentCost/segmentFitness dispatch the genome scorer runs per machine
// (cdd.CostArrays or cdd.OptimizeArrays, ucddcp.OptimizeArrays,
// earlywork.CostArrays) — over the hoisted SoA columns and one
// completion-time scratch row. Costs and abstract op counts are therefore
// bit-identical to the per-sequence path by construction: the invariant
// every consumer (the ensemble runtime's per-chain scoring, the cudasim
// fitness kernel, DPSO's population evaluation) relies on and the verify
// oracle chain enforces.

// SoAInstance is a structure-of-arrays snapshot of one instance's job
// parameters: every per-job column widened to int64 and packed into a
// single contiguous backing array, hoisted once per solve so the batch
// kernels sweep cache-dense columns instead of pointer-chasing
// problem.Job structs. Columns are indexed by job id. M and Gamma are
// nil for CDD instances.
type SoAInstance struct {
	// Kind is the problem kind the snapshot was taken for.
	Kind problem.Kind
	// N is the job count; D the common due date.
	N int
	D int64
	// Machines is the normalized machine count and L the genome length
	// N + Machines − 1 (the row stride of batch layouts; L == N on
	// single-machine instances).
	Machines, L int
	// P, Alpha, Beta are the processing-time and penalty columns.
	P, Alpha, Beta []int64
	// M, Gamma are the minimum-processing-time and compression-penalty
	// columns (UCDDCP only; nil for CDD).
	M, Gamma []int64
}

// NewSoAInstance hoists the instance's job parameters into one
// contiguous structure-of-arrays snapshot.
func NewSoAInstance(in *problem.Instance) *SoAInstance {
	n := in.N()
	s := &SoAInstance{Kind: in.Kind, N: n, D: in.D, Machines: in.MachineCount(), L: in.GenomeLen()}
	cols := 3
	if in.Kind == problem.UCDDCP {
		cols = 5
	}
	back := make([]int64, cols*n)
	s.P, s.Alpha, s.Beta = back[0:n:n], back[n:2*n:2*n], back[2*n:3*n:3*n]
	for i, j := range in.Jobs {
		s.P[i], s.Alpha[i], s.Beta[i] = int64(j.P), int64(j.Alpha), int64(j.Beta)
	}
	if in.Kind == problem.UCDDCP {
		s.M, s.Gamma = back[3*n:4*n:4*n], back[4*n:5*n:5*n]
		for i, j := range in.Jobs {
			s.M[i], s.Gamma[i] = int64(j.M), int64(j.Gamma)
		}
	}
	return s
}

// genomeCoded reports whether solutions for this snapshot are delimiter
// genomes scored machine-by-machine instead of single sequences on the
// pre-generalization kernels: any multi-machine instance, plus EARLYWORK
// (whose per-job columns carry no E/T penalties and whose cost is the
// late-work closed form even on one machine).
func (s *SoAInstance) genomeCoded() bool {
	return s.Machines > 1 || s.Kind == problem.EARLYWORK
}

// BatchEvaluator scores batches of sequences against one SoAInstance
// snapshot: B sequences per call, each through the kind's single-row
// core. It also implements Evaluator (Cost is the batch of one), and it
// is the Evaluator NewEvaluator returns for every instance. A
// BatchEvaluator carries scratch and is not safe for concurrent use;
// create one per goroutine.
type BatchEvaluator struct {
	in  *problem.Instance
	soa *SoAInstance
	// comp is the completion-time scratch row (n).
	comp []int64
}

// NewBatchEvaluator snapshots the instance and returns a batch evaluator
// for it.
func NewBatchEvaluator(in *problem.Instance) *BatchEvaluator {
	return NewBatchEvaluatorSoA(in, NewSoAInstance(in))
}

// NewBatchEvaluatorSoA returns a batch evaluator over an existing
// snapshot, so many evaluators (one per goroutine) can share one hoisted
// copy of the instance data.
func NewBatchEvaluatorSoA(in *problem.Instance, soa *SoAInstance) *BatchEvaluator {
	return &BatchEvaluator{in: in, soa: soa, comp: make([]int64, soa.N)}
}

// BatchEvaluatorFor adapts an existing evaluator to the batch API:
// a BatchEvaluator passes through unchanged, anything else gets a fresh
// snapshot of its instance.
func BatchEvaluatorFor(eval Evaluator) *BatchEvaluator {
	if be, ok := eval.(*BatchEvaluator); ok {
		return be
	}
	return NewBatchEvaluator(eval.Instance())
}

// Instance implements Evaluator.
func (e *BatchEvaluator) Instance() *problem.Instance { return e.in }

// SoA returns the underlying snapshot (shared, read-only by convention).
func (e *BatchEvaluator) SoA() *SoAInstance { return e.soa }

// Cost implements Evaluator: the batch of one. On genome-coded snapshots
// seq is a delimiter genome and the cost is the sum of per-machine
// segment costs.
func (e *BatchEvaluator) Cost(seq []int) int64 {
	return rowCost(seq, e.soa, e.comp)
}

// CostRows scores B = len(costs) sequences stored row-major in rows
// (len(rows) ≥ B·L) into costs — the flat layout the simulated GPU
// pipeline keeps its population in. The row stride is the genome length
// L (equal to N on single-machine instances).
func (e *BatchEvaluator) CostRows(rows []int, costs []int64) {
	costRows(rows, e.soa, e.comp, costs)
}

// CostRows32 is CostRows for int32 rows (the device sequence layout).
func (e *BatchEvaluator) CostRows32(rows []int32, costs []int64) {
	costRows(rows, e.soa, e.comp, costs)
}

// CostSeqs scores seqs[i] into costs[i] (len(costs) = len(seqs)) without
// requiring the sequences to be materialized into one flat matrix — the
// layout population metaheuristics like DPSO hold their particles in.
func (e *BatchEvaluator) CostSeqs(seqs [][]int, costs []int64) {
	for i := range costs {
		costs[i] = e.Cost(seqs[i])
	}
}

// FitnessRow32 is the core row dispatch: it scores one device row (a
// delimiter genome on genome-coded snapshots, otherwise the single
// machine's sequence) with the kind's O(n) linear algorithm and returns
// its cost and abstract operation count — the quantity the simulated GPU
// converts into cycle charges.
func (e *BatchEvaluator) FitnessRow32(row []int32) (cost int64, ops int) {
	if e.soa.genomeCoded() {
		return GenomeFitnessArrays(row, e.soa, e.comp)
	}
	return segmentFitness(row, e.soa, e.comp)
}

// costRows is the row loop shared by the []int and []int32 faces.
func costRows[S cdd.Index](rows []S, s *SoAInstance, comp, costs []int64) {
	for i := range costs {
		costs[i] = rowCost(rows[i*s.L:(i+1)*s.L], s, comp)
	}
}

// rowCost scores one row: a delimiter genome on genome-coded snapshots,
// otherwise the whole row is the single machine's sequence. Indices
// outside [0, N) panic in the kernels' bounds checks.
func rowCost[S cdd.Index](row []S, s *SoAInstance, comp []int64) int64 {
	if s.genomeCoded() {
		return GenomeCostArrays(row, s, comp)
	}
	return segmentCost(row, s, comp)
}
