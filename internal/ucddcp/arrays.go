package ucddcp

import "repro/internal/cdd"

// This file holds the array-based generic core of the two-phase UCDDCP
// linear algorithm, shared verbatim between the host evaluator ([]int
// sequences) and the simulated GPU fitness kernel ([]int32 rows), so the
// two cannot drift.
//
// In the anchored case (due-date position r > 0, which covers every
// instance with d ≥ ΣP) the core is a few forward sweeps with no scratch
// row and no stored completion times:
//
//  1. Phase 1 splits the uncompressed sequence at τ (the last job
//     completing by d) exactly as cdd.CostArrays does, carrying only Σα
//     and Σβ; the breakpoint walk peels processing times off the running
//     sum. When it stops, its β aggregate is Σβ over positions ≥ r−1, so
//     the tardy side's benefit sums come for free.
//  2. Early side (positions < r). Compression keeps every early job at or
//     before d (M ≥ 1), so a job's earliness is the compressed length of
//     the jobs after it up to the due-date job, and
//
//     Σ α·E = Σ_k (p_k − x_k)·A_k,  A_k = Σ α over positions before k.
//
//     A_k is also the benefit of compressing position k, so one sweep
//     makes each decision and adds its γ and earliness cost.
//  3. Tardy side (positions ≥ r). Every such job stays tardy, so its
//     benefit is the running β suffix and its tardiness the running
//     Σ(p − x) since r.
//
// Decisions are written as selects (u = p − m ≥ 0 always, so no u > 0
// guard is needed), and the per-job compressions are written in a
// separate pass only when the caller asks for them. Integer arithmetic
// wraps modulo 2^64 like the per-position sums it regroups, so the
// regrouped cost is bit-identical to them even on overflow. The op count the
// simulated device charges is the closed form of the count the original
// seven-pass formulation accumulated, so every simulated device time is
// unchanged.
//
// The degenerate case r == 0 (restrictive due date or all-zero α, outside
// the paper's UCDDCP domain) starts at time 0 with no job anchored at d;
// compression can then pull tardy jobs across the due date, so it keeps
// the stored completion times and the two-pointer tardy sweep over the
// still-tardy suffix (unanchoredArrays).

// OptimizeArrays runs the full two-phase algorithm on primitive parameter
// arrays indexed by job id. The other columns must be as long as p: the
// sweeps reslice them to len(p), so each job costs one bounds check, not
// one per column. comp is caller-provided scratch of length ≥ len(seq),
// used only in the degenerate r == 0 case. x, when non-nil, is storage
// indexed by job id and receives the compression of every job in seq
// (zero included); the device kernel passes nil. The returned ops is the
// abstract operation count the simulated device converts into cycle
// charges.
func OptimizeArrays[S cdd.Index](seq []S, p, m, alpha, beta, gamma []int64, d int64, comp, x []int64) (cost, start int64, dueJob, ops int) {
	n := len(seq)
	alpha, beta = alpha[:len(p)], beta[:len(p)]

	// Phase 1: CDD timing of the uncompressed sequence, split at τ.
	var t, a, b int64
	i := 0
	for ; i < n; i++ {
		j := seq[i]
		t += p[j]
		if t > d {
			break
		}
		a += alpha[j]
	}
	tau := i
	cm := t // completion of the last early job once the tardy head is removed
	if i < n {
		cm = t - p[seq[i]]
		for ; i < n; i++ {
			b += beta[seq[i]]
		}
	}
	if tau == 0 || (cm < d && b >= a) {
		return unanchoredArrays(seq, p, m, alpha, beta, gamma, d, tau, b, comp, x), 0, 0, 18 * n
	}

	// Breakpoint walk: position r (1-based) completes at d. Entering the
	// loop, r = τ moves from the early to the tardy aggregates.
	r := tau
	jb := seq[r-1]
	a -= alpha[jb]
	b += beta[jb]
	for r > 1 && a > b {
		cm -= p[jb]
		r--
		jb = seq[r-1]
		a -= alpha[jb]
		b += beta[jb]
	}
	// b is now Σβ over positions ≥ r−1 and cm = Σp over positions < r.
	ops = 18*n - r + 4*(tau-r)
	if cm != d {
		ops += n // the op-count model charges shifting all n completions
	}

	early, ce := earlySweep(seq[:r], p, m, alpha, gamma)
	cost = ce + tardySweep(seq[r:], p, m, beta, gamma, b-beta[jb])

	if x != nil {
		var ap int64
		for _, j := range seq[:r] {
			var xe int64
			if ap > gamma[j] {
				xe = p[j] - m[j]
			}
			x[j] = xe
			ap += alpha[j]
		}
		sb := b - beta[jb]
		for _, j := range seq[r:] {
			var xt int64
			if sb > gamma[j] {
				xt = p[j] - m[j]
			}
			x[j] = xt
			sb -= beta[j]
		}
	}
	return cost, d - early, r, ops
}

// earlySweep prices the early side of the anchored case, positions
// 0..r-1 in seq: each position is compressed when the α-prefix before it
// exceeds its γ, and its compressed length (p − x) is charged once per
// unit of that prefix (Σ α·E = Σ (p − x)·A). It returns the side's cost
// and the total compressed length, which places the schedule's start.
func earlySweep[S cdd.Index](seq []S, p, m, alpha, gamma []int64) (early, cost int64) {
	m, alpha, gamma = m[:len(p)], alpha[:len(p)], gamma[:len(p)]
	var ap int64
	for _, j := range seq {
		var xe int64
		if ap > gamma[j] {
			xe = p[j] - m[j]
		}
		pe := p[j] - xe
		cost += gamma[j]*xe + pe*ap
		early += pe
		ap += alpha[j]
	}
	return early, cost
}

// tardySweep prices the tardy side of the anchored case, positions r..n-1
// in seq, given sb = Σβ over them: each position is compressed when the β
// suffix from it exceeds its γ, and its tardiness is the running
// compressed length since r.
func tardySweep[S cdd.Index](seq []S, p, m, beta, gamma []int64, sb int64) (cost int64) {
	m, beta, gamma = m[:len(p)], beta[:len(p)], gamma[:len(p)]
	var tard int64
	for _, j := range seq {
		var xt int64
		if sb > gamma[j] {
			xt = p[j] - m[j]
		}
		tard += p[j] - xt
		cost += gamma[j]*xt + beta[j]*tard
		sb -= beta[j]
	}
	return cost
}

// unanchoredArrays is the compression phase of the degenerate r == 0
// case: the schedule starts at time 0, positions before tau complete by d
// and bTardy is Σβ over positions ≥ tau. It returns the exact objective
// Σ α·E + β·T + γ·X of the schedule it builds, writing x as
// OptimizeArrays does.
//
// Every position is decided like a tardy job: compressing it pulls the
// whole suffix left, and the benefit is the β-sum of the jobs that are
// still tardy among positions ≥ max(pos, tp), where tp is the first
// position whose current completion exceeds d. Here compression can pull
// a tardy job across d, so comp holds each position's completion time
// (final once decided) and tp advances as the suffix moves left.
func unanchoredArrays[S cdd.Index](seq []S, p, m, alpha, beta, gamma []int64, d int64, tau int, bTardy int64, comp, x []int64) (cost int64) {
	n := len(seq)
	var t, sbPos int64
	for pos, j := range seq {
		t += p[j]
		comp[pos] = t
		sbPos += beta[j]
	}
	tp, sbTp := tau, bTardy
	var shift int64
	for pos, j := range seq {
		for tp < n {
			cur := comp[tp] // tp < pos: already final
			if tp >= pos {
				cur -= shift
			}
			if cur > d {
				break
			}
			sbTp -= beta[seq[tp]]
			tp++
		}
		benefit := sbPos
		if tp > pos {
			benefit = sbTp
		}
		var xt int64
		if benefit > gamma[j] {
			xt = p[j] - m[j]
		}
		if x != nil {
			x[j] = xt
		}
		shift += xt
		cost += gamma[j] * xt
		comp[pos] -= shift
		if c := comp[pos]; c < d {
			cost += alpha[j] * (d - c)
		} else {
			cost += beta[j] * (c - d)
		}
		sbPos -= beta[j]
	}
	return cost
}
