package parallel

import (
	"repro/internal/cdd"
	"repro/internal/ucddcp"
)

// Device-side fitness functions: the O(n) linear algorithms evaluated on
// the primitive arrays living in simulated GPU memory (job-indexed
// parameter arrays, int32 sequence rows), exactly as the paper's fitness
// kernel does. The penalty arrays are the ones the kernel stages into
// shared memory; the processing times come from global memory ("not cached
// because there are only a few reads from it inside the fitness
// function").
//
// Both functions are thin instantiations of the generic fused cores in
// internal/cdd and internal/ucddcp — the same code the host evaluators
// run — so device and host results are bit-identical by construction.
// TestDeviceFitnessParity still asserts it.

// fitnessCDDArrays returns the optimal CDD penalty of the sequence. comp
// is caller-provided scratch of length ≥ len(seq) (the thread's local
// memory). It also returns the number of abstract operations executed,
// which the kernel converts into cycle charges.
func fitnessCDDArrays(seq []int32, p, alpha, beta []int64, d int64, comp []int64) (cost int64, ops int) {
	cost, _, _, ops = cdd.OptimizeArrays(seq, p, alpha, beta, d, comp)
	return cost, ops
}

// fitnessUCDDCPArrays returns the optimal UCDDCP penalty of the sequence:
// the CDD phase over the uncompressed processing times followed by the
// all-or-nothing compression phase of Section IV-B. comp is
// caller-provided length-n scratch (touched only in the degenerate
// no-due-job case).
func fitnessUCDDCPArrays(seq []int32, p, m, alpha, beta, gamma []int64, d int64, comp []int64) (cost int64, ops int) {
	cost, _, _, ops = ucddcp.OptimizeArrays(seq, p, m, alpha, beta, gamma, d, comp, nil)
	return cost, ops
}
