package core

import (
	"repro/internal/cdd"
	"repro/internal/earlywork"
	"repro/internal/problem"
	"repro/internal/ucddcp"
)

// Genome scoring: the machine-aware evaluation core for parallel-machine
// instances. A solution is a delimiter genome (see problem.GenomeLen) — a
// permutation of n job ids plus m−1 separator values ≥ n — and its cost
// is the sum of the per-machine objectives, each machine's run of job
// values scored by the same exact O(n) single-machine cores the
// single-machine path uses (cdd.CostArrays / ucddcp.OptimizeArrays /
// earlywork.CostArrays on the segment sub-slice against the job-indexed
// parameter columns). Single-machine instances never reach these
// functions: their genome is the plain sequence and the dispatchers keep
// them on the pre-generalization kernels, bit-identical by construction.

// GenomeCostArrays returns the total cost of a delimiter genome over the
// snapshot: the sum of per-machine segment costs. comp is
// caller-provided scratch of length ≥ s.N.
func GenomeCostArrays[S cdd.Index](seq []S, s *SoAInstance, comp []int64) int64 {
	var total int64
	lo := 0
	for i := 0; i <= len(seq); i++ {
		if i < len(seq) && int(seq[i]) < s.N {
			continue
		}
		total += segmentCost(seq[lo:i], s, comp)
		lo = i + 1
	}
	return total
}

// GenomeFitnessArrays is GenomeCostArrays with the abstract operation
// count the simulated GPU converts into cycle charges (the sum of the
// per-segment kernel counts plus one op per separator scan).
func GenomeFitnessArrays[S cdd.Index](seq []S, s *SoAInstance, comp []int64) (cost int64, ops int) {
	lo := 0
	for i := 0; i <= len(seq); i++ {
		if i < len(seq) && int(seq[i]) < s.N {
			continue
		}
		c, o := segmentFitness(seq[lo:i], s, comp)
		cost += c
		ops += o + 1
		lo = i + 1
	}
	return cost, ops
}

// segmentCost scores one machine's job run with the kind's exact
// single-machine core.
func segmentCost[S cdd.Index](seg []S, s *SoAInstance, comp []int64) int64 {
	if len(seg) == 0 {
		return 0
	}
	switch s.Kind {
	case problem.UCDDCP:
		c, _, _, _ := ucddcp.OptimizeArrays(seg, s.P, s.M, s.Alpha, s.Beta, s.Gamma, s.D, comp[:len(seg)], nil)
		return c
	case problem.EARLYWORK:
		return earlywork.CostArrays(seg, s.P, s.D)
	default:
		return cdd.CostArrays(seg, s.P, s.Alpha, s.Beta, s.D)
	}
}

// segmentFitness is segmentCost with the kernel's abstract op count.
func segmentFitness[S cdd.Index](seg []S, s *SoAInstance, comp []int64) (int64, int) {
	if len(seg) == 0 {
		return 0, 0
	}
	switch s.Kind {
	case problem.UCDDCP:
		c, _, _, o := ucddcp.OptimizeArrays(seg, s.P, s.M, s.Alpha, s.Beta, s.Gamma, s.D, comp[:len(seg)], nil)
		return c, o
	case problem.EARLYWORK:
		return earlywork.FitnessArrays(seg, s.P, s.D)
	default:
		c, _, _, o := cdd.OptimizeArrays(seg, s.P, s.Alpha, s.Beta, s.D, comp[:len(seg)])
		return c, o
	}
}

// GenomeSchedule materializes a genome into a fully timed schedule: the
// machine-major job order, the per-job machine assignment, each machine's
// optimal start time, and (for UCDDCP) the merged per-job compressions.
// For single-machine instances it reduces to the kind's OptimizeSequence
// with nil Assign/Starts, so the schedule wire form is unchanged.
func GenomeSchedule(in *problem.Instance, genome []int) problem.Schedule {
	if in.MachineCount() == 1 {
		switch in.Kind {
		case problem.UCDDCP:
			opt := ucddcp.OptimizeSequence(in, genome)
			return problem.Schedule{Seq: genome, Start: opt.Start, X: opt.X}
		case problem.EARLYWORK:
			return problem.Schedule{Seq: genome}
		default:
			opt := cdd.OptimizeSequence(in, genome)
			return problem.Schedule{Seq: genome, Start: opt.Start}
		}
	}
	s := NewSoAInstance(in)
	segs := in.SplitGenome(genome)
	order, assign := in.GenomeAssignment(genome)
	starts := make([]int64, len(segs))
	var x []int64
	if in.Kind == problem.UCDDCP {
		x = make([]int64, s.N)
	}
	comp := make([]int64, s.N)
	for k, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		switch in.Kind {
		case problem.UCDDCP:
			_, start, _, _ := ucddcp.OptimizeArrays(seg, s.P, s.M, s.Alpha, s.Beta, s.Gamma, s.D, comp[:len(seg)], x)
			starts[k] = start
		case problem.EARLYWORK:
			// Late work is minimized by starting at 0.
		default:
			_, start, _, _ := cdd.OptimizeArrays(seg, s.P, s.Alpha, s.Beta, s.D, comp[:len(seg)])
			starts[k] = start
		}
	}
	return problem.Schedule{Seq: order, Starts: starts, X: x, Assign: assign}
}
