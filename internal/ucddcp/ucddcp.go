// Package ucddcp implements the O(n) optimizer for a fixed job sequence of
// the Unrestricted Common Due-Date problem with Controllable Processing
// Times, after Awasthi, Lässig and Kramer, "Un-restricted common due-date
// problem with controllable processing times: Linear algorithm for a given
// job sequence" (ICEIS 2015), as used as the inner layer of the two-layered
// GPU approach in Awasthi et al. (IPDPSW 2016).
//
// The algorithm runs in two phases:
//
//  1. CDD phase — time the uncompressed sequence optimally with the linear
//     CDD algorithm. By Property 1 of the paper, the position r of the job
//     completing at the due date does not change when compression is
//     introduced.
//  2. Compression phase — by Property 2, if compressing a job improves the
//     solution at all, compressing it to its minimum processing time is
//     optimal ("all or nothing"). A tardy job j (position > r) is
//     compressed when the tardiness penalties of the still-tardy jobs from
//     j onwards exceed γ_j; compressing it pulls the whole suffix towards
//     the due date. An early (or on-time) job j is compressed when the
//     earliness penalties of all preceding jobs exceed γ_j; compressing it
//     pushes the prefix right, towards the due date, while job j's own
//     completion stays fixed.
//
// With the due-date job anchored at position r, a tardy job can never be
// pulled across the due date by compression: the completion of the job at
// position q > r is d + Σ_{k=r+1..q}(P_k−X_k) ≥ d + (q−r)·min M ≥ d+1, so
// the all-or-nothing rule is exact and the benefit sums are plain suffix
// sums (confirmed against the exhaustive reference solver in tests). The
// same anchor keeps every early job at or before d, so an early job's
// earliness is the compressed length of the jobs after it up to r, and
// the earliness cost regroups as
//
//	Σ α·E = Σ_k (P_k − X_k)·A_k,  A_k = Σ α over positions before k,
//
// where A_k is also the benefit of compressing position k. OptimizeArrays
// therefore runs the anchored case as forward sweeps — phase 1 split at τ
// (its breakpoint walk leaves Σβ over positions ≥ r−1 behind), one early
// sweep and one tardy sweep that each decide, price γ and add the penalty
// — with no stored completion times and no scratch row. Only the
// degenerate r = 0 case (restrictive due date or all-zero α, outside the
// paper's UCDDCP domain) keeps completion times and a two-pointer sweep
// over the still-tardy suffix: there the start-time anchor replaces the
// due-date anchor and compression can pull a tardy job across d. The
// returned cost is always the exact objective value of the schedule
// actually constructed.
package ucddcp

import "repro/internal/problem"

// Result describes the optimized timing and compression of a fixed
// sequence.
type Result struct {
	// Cost is the total penalty Σ α·E + β·T + γ·X of the returned
	// schedule, evaluated exactly.
	Cost int64
	// Start is the start time of the first job.
	Start int64
	// DueJob is the 1-based position of the job completing at the due date
	// after the CDD phase (Property 1: unchanged by compression), or 0 in
	// the degenerate no-due-job case.
	DueJob int
	// X is the compression per job, indexed by job id. Results returned by
	// Evaluator.Optimize alias the evaluator's scratch buffer and are
	// valid until the next call; OptimizeSequence returns a private copy.
	X []int64
}

// OptimizeSequence optimizes the timing and compressions of the fixed
// sequence seq. The returned Result owns its X slice.
func OptimizeSequence(in *problem.Instance, seq []int) Result {
	e := NewEvaluator(in)
	res := e.Optimize(seq)
	x := make([]int64, len(res.X))
	copy(x, res.X)
	res.X = x
	return res
}

// Evaluator evaluates sequences of one UCDDCP instance repeatedly without
// allocation. Not safe for concurrent use; create one per goroutine (or
// per simulated GPU thread).
type Evaluator struct {
	in *problem.Instance
	// Job parameters widened to int64 once, indexed by job id.
	p, m, alpha, beta, gamma []int64
	comp                     []int64 // completion times by position (r == 0 only)
	x                        []int64 // compression by job id
}

// NewEvaluator returns an evaluator for the given instance.
func NewEvaluator(in *problem.Instance) *Evaluator {
	p, m, alpha, beta, gamma := ParamArrays(in)
	return &Evaluator{
		in: in, p: p, m: m, alpha: alpha, beta: beta, gamma: gamma,
		comp: make([]int64, in.N()),
		x:    make([]int64, in.N()),
	}
}

// ParamArrays widens the instance's job parameters into the job-indexed
// int64 arrays the array-based evaluation cores consume (the layout the
// GPU pipeline keeps in device memory).
func ParamArrays(in *problem.Instance) (p, m, alpha, beta, gamma []int64) {
	n := in.N()
	p = make([]int64, n)
	m = make([]int64, n)
	alpha = make([]int64, n)
	beta = make([]int64, n)
	gamma = make([]int64, n)
	for i, j := range in.Jobs {
		p[i], m[i] = int64(j.P), int64(j.M)
		alpha[i], beta[i], gamma[i] = int64(j.Alpha), int64(j.Beta), int64(j.Gamma)
	}
	return p, m, alpha, beta, gamma
}

// Instance returns the instance the evaluator was built for.
func (e *Evaluator) Instance() *problem.Instance { return e.in }

// Cost returns only the optimized penalty of the sequence; it is the
// fitness function used by the metaheuristics. It asks the core for no
// compressions, so nothing is written per job.
func (e *Evaluator) Cost(seq []int) int64 {
	cost, _, _, _ := OptimizeArrays(seq, e.p, e.m, e.alpha, e.beta, e.gamma, e.in.D, e.comp[:len(seq)], nil)
	return cost
}

// Optimize runs the two-phase linear algorithm on the sequence through the
// array core shared with the simulated GPU fitness kernel (see
// OptimizeArrays). The core writes the compression of every sequenced
// job, so X needs no zeroing; the Result's X slice aliases evaluator
// scratch and is valid until the next call.
func (e *Evaluator) Optimize(seq []int) Result {
	n := len(seq)
	x := e.x[:n]
	cost, start, r, _ := OptimizeArrays(seq, e.p, e.m, e.alpha, e.beta, e.gamma, e.in.D, e.comp[:n], x)
	return Result{Cost: cost, Start: start, DueJob: r, X: x}
}
