package ucddcp

import (
	"repro/internal/cdd"
	"repro/internal/problem"
)

// ReferenceOptimize computes the exact optimum for a fixed sequence by
// enumerating every integer compression vector x ∈ Π[0, P_i−M_i] and, for
// each, timing the residual CDD problem optimally with the (separately
// verified) linear CDD algorithm. An integer-optimal x exists because for
// any fixed timing the objective is linear in each x_i with integer
// breakpoints. The cost is exponential in the number of compressible jobs
// and the function exists solely as a test oracle.
func ReferenceOptimize(in *problem.Instance, seq []int) Result {
	mod := in.Clone()
	x := make([]int64, in.N())
	best := Result{Cost: -1}
	var recurse func(i int, gammaCost int64)
	recurse = func(i int, gammaCost int64) {
		if i == len(seq) {
			res := cdd.OptimizeSequence(mod, seq)
			total := res.Cost + gammaCost
			if best.Cost < 0 || total < best.Cost {
				bx := make([]int64, len(x))
				copy(bx, x)
				best = Result{Cost: total, Start: res.Start, DueJob: res.DueJob, X: bx}
			}
			return
		}
		job := seq[i]
		u := in.Jobs[job].MaxCompression()
		for xi := 0; xi <= u; xi++ {
			x[job] = int64(xi)
			mod.Jobs[job].P = in.Jobs[job].P - xi
			recurse(i+1, gammaCost+int64(in.Jobs[job].Gamma)*int64(xi))
		}
		x[job] = 0
		mod.Jobs[job].P = in.Jobs[job].P
	}
	recurse(0, 0)
	return best
}

// OptimizeSequenceNoCompression returns the optimal cost of the sequence
// with all compressions forced to zero — the plain CDD timing of the same
// sequence. It is the natural upper bound for Optimize's cost.
func OptimizeSequenceNoCompression(in *problem.Instance, seq []int) int64 {
	return cdd.OptimizeSequence(in, seq).Cost
}
