package verify

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// Metamorphic properties: transformations of an instance with a provable
// effect on the objective, checked against the actual evaluators. Unlike
// the oracle chain these need no ground truth — the relation between the
// original and the transformed evaluation is the oracle.
//
//   - relabel-invariance: renaming job ids (and mapping the sequence
//     through the renaming) cannot change any sequence's cost.
//   - penalty-scaling: multiplying every α, β, γ by k multiplies every
//     sequence's optimal cost by exactly k (the timing/compression
//     decision space is unchanged; the objective is linear in the
//     penalty weights).
//   - compression-monotone: allowing compression can only help — the
//     UCDDCP optimum of a sequence is ≤ the CDD optimum of the same
//     sequence with compression ignored; and a zero-capacity (M = P)
//     controllable instance evaluates exactly like its CDD projection.
//   - machine-relabel: machines are identical, so swapping two machine
//     segments of a delimiter genome cannot change its cost.
//   - single-machine-reduction: concentrating every job of a parallel
//     instance on machine 0 must evaluate bit-identically to the same
//     job order on the Machines = 1 clone — the proof that the
//     generalized path collapses onto the paper's single-machine
//     algorithms.
//
// The V-shape dominance property around d (every unrestricted CDD
// instance has a V-shaped optimal sequence) is checked in the oracle
// chain as brute == subset, where the subset oracle enumerates only
// V-shaped candidates; idle-time freeness and the compression bounds
// 0 ≤ X ≤ P−M are asserted on every materialized schedule by
// scheduleCost in the sequence-agreement chain.

// CheckMetamorphic runs every applicable metamorphic property on the
// instance with sequences drawn from rng and returns the discrepancies.
func CheckMetamorphic(in *problem.Instance, rng *xrand.XORWOW, samples int) []Discrepancy {
	var ds []Discrepancy
	eval := core.NewEvaluator(in)
	seq := problem.IdentitySequence(in.GenomeLen())
	for s := 0; s < samples; s++ {
		xrand.Shuffle(rng, seq)
		base := eval.Cost(seq)
		ds = append(ds, checkRelabel(in, rng, seq, base)...)
		if in.Kind != problem.EARLYWORK {
			// EARLYWORK carries no penalty weights to scale.
			ds = append(ds, checkScaling(in, rng, seq, base)...)
		}
		if in.Kind == problem.UCDDCP {
			ds = append(ds, checkCompressionMonotone(in, seq, base)...)
		}
		if in.MachineCount() > 1 {
			ds = append(ds, checkMachineRelabel(in, rng, seq, base)...)
			ds = append(ds, checkSingleMachineReduction(in, seq)...)
		}
	}
	return ds
}

// checkRelabel renames job ids through a random permutation π (job i of
// the original becomes job π(i) of the relabeled instance) and asserts
// cost invariance of the mapped genome (separator values pass through
// unmapped — they carry position, not identity).
func checkRelabel(in *problem.Instance, rng *xrand.XORWOW, seq []int, base int64) []Discrepancy {
	n := in.N()
	pi := problem.IdentitySequence(n)
	xrand.Shuffle(rng, pi)
	re := in.Clone()
	re.Name = in.Name + "/relabeled"
	for i, j := range in.Jobs {
		re.Jobs[pi[i]] = j
	}
	mapped := make([]int, len(seq))
	for pos, v := range seq {
		if v < n {
			mapped[pos] = pi[v]
		} else {
			mapped[pos] = v
		}
	}
	if got := core.NewEvaluator(re).Cost(mapped); got != base {
		return []Discrepancy{{
			Check: "relabel-invariance", Instance: in.Name,
			Detail: fmt.Sprintf("relabeled cost %d != original %d (seq %v, π %v)", got, base, seq, pi),
		}}
	}
	return nil
}

// checkScaling multiplies the penalty weights by k and asserts the cost
// scales by exactly k.
func checkScaling(in *problem.Instance, rng *xrand.XORWOW, seq []int, base int64) []Discrepancy {
	k := 2 + rng.Intn(4) // k ∈ [2,5]; instance data is small, no overflow
	sc := in.Clone()
	sc.Name = fmt.Sprintf("%s/x%d", in.Name, k)
	for i := range sc.Jobs {
		sc.Jobs[i].Alpha *= k
		sc.Jobs[i].Beta *= k
		sc.Jobs[i].Gamma *= k
	}
	if got := core.NewEvaluator(sc).Cost(seq); got != int64(k)*base {
		return []Discrepancy{{
			Check: "penalty-scaling", Instance: in.Name,
			Detail: fmt.Sprintf("×%d scaled cost %d != %d·%d (seq %v)", k, got, k, base, seq),
		}}
	}
	return nil
}

// checkCompressionMonotone asserts that compression never hurts (UCDDCP
// cost ≤ CDD cost of the uncompressed projection on the same sequence)
// and that zero compression capacity collapses the controllable problem
// onto plain CDD exactly.
func checkCompressionMonotone(in *problem.Instance, seq []int, base int64) []Discrepancy {
	n := in.N()
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	for i, j := range in.Jobs {
		p[i], alpha[i], beta[i] = j.P, j.Alpha, j.Beta
	}
	proj, err := problem.NewCDD(in.Name+"/cdd-projection", p, alpha, beta, in.D)
	if err != nil {
		return []Discrepancy{{
			Check: "compression-monotone", Instance: in.Name,
			Detail: fmt.Sprintf("CDD projection rejected: %v", err),
		}}
	}
	// The projection keeps the machine count: compression never hurts on
	// each machine independently, so the property holds per genome too.
	proj.Machines = in.Machines
	cddCost := core.NewEvaluator(proj).Cost(seq)
	var ds []Discrepancy
	if base > cddCost {
		ds = append(ds, Discrepancy{
			Check: "compression-monotone", Instance: in.Name,
			Detail: fmt.Sprintf("UCDDCP cost %d > CDD cost %d of the uncompressed projection (seq %v)", base, cddCost, seq),
		})
	}
	// Zero capacity: force M = P on a clone; the evaluation must equal the
	// CDD projection bit for bit.
	zc := in.Clone()
	zc.Name = in.Name + "/zero-capacity"
	for i := range zc.Jobs {
		zc.Jobs[i].M = zc.Jobs[i].P
	}
	if got := core.NewEvaluator(zc).Cost(seq); got != cddCost {
		ds = append(ds, Discrepancy{
			Check: "compression-monotone", Instance: in.Name,
			Detail: fmt.Sprintf("zero-capacity UCDDCP cost %d != CDD cost %d (seq %v)", got, cddCost, seq),
		})
	}
	return ds
}

// checkMachineRelabel swaps two random machine segments of the genome and
// asserts cost invariance — the machines are identical, so the objective
// cannot depend on which machine index a segment lands on.
func checkMachineRelabel(in *problem.Instance, rng *xrand.XORWOW, seq []int, base int64) []Discrepancy {
	segs := in.SplitGenome(seq)
	m := len(segs)
	a := rng.Intn(m)
	b := rng.Intn(m - 1)
	if b >= a {
		b++
	}
	segs[a], segs[b] = segs[b], segs[a]
	swapped, err := in.EncodeGenome(segs)
	if err != nil {
		return []Discrepancy{{
			Check: "machine-relabel", Instance: in.Name,
			Detail: fmt.Sprintf("re-encoding swapped segments failed: %v", err),
		}}
	}
	if got := core.NewEvaluator(in).Cost(swapped); got != base {
		return []Discrepancy{{
			Check: "machine-relabel", Instance: in.Name,
			Detail: fmt.Sprintf("segment-swapped cost %d != original %d (genome %v, swapped %d<->%d)", got, base, seq, a, b),
		}}
	}
	return nil
}

// checkSingleMachineReduction concentrates every job on machine 0 (all
// separators trailing) and asserts the cost bit-matches the same job
// order evaluated on the Machines = 1 clone through the paper's
// single-machine algorithms. Empty machines contribute zero, so the two
// must agree exactly.
func checkSingleMachineReduction(in *problem.Instance, seq []int) []Discrepancy {
	n := in.N()
	order := make([]int, 0, n)
	for _, v := range seq {
		if v < n {
			order = append(order, v)
		}
	}
	genome := make([]int, 0, in.GenomeLen())
	genome = append(genome, order...)
	for sep := n; sep < in.GenomeLen(); sep++ {
		genome = append(genome, sep)
	}
	concentrated := core.NewEvaluator(in).Cost(genome)
	single := in.Clone()
	single.Name = in.Name + "/m1"
	single.Machines = 1
	want := core.NewEvaluator(single).Cost(order)
	if concentrated != want {
		return []Discrepancy{{
			Check: "single-machine-reduction", Instance: in.Name,
			Detail: fmt.Sprintf("all-on-machine-0 genome costs %d, single-machine path costs %d (order %v)", concentrated, want, order),
		}}
	}
	return nil
}
