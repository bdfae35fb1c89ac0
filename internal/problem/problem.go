// Package problem defines the data model for the two scheduling problems
// studied in Awasthi et al., "GPGPU-based Parallel Algorithms for Scheduling
// Against Due Date" (IPDPSW 2016): the Common Due-Date problem (CDD) and the
// Unrestricted Common Due-Date problem with Controllable Processing Times
// (UCDDCP).
//
// Both problems schedule n jobs on a single machine against a common due
// date d. Each job i has a processing time P_i, an earliness penalty α_i per
// unit time and a tardiness penalty β_i per unit time. In the controllable
// variant a job may additionally be compressed from P_i down to a minimum
// processing time M_i at a compression penalty γ_i per unit of reduction.
//
// The package holds only the instance/schedule model and exact objective
// evaluation; the O(n) per-sequence optimizers live in internal/cdd and
// internal/ucddcp.
package problem

import (
	"errors"
	"fmt"
)

// Job is a single job of a CDD or UCDDCP instance. All quantities are
// integral, as in the OR-library benchmark data.
type Job struct {
	// P is the (uncompressed) processing time, P >= 1.
	P int
	// M is the minimum processing time after compression, 1 <= M <= P.
	// For plain CDD instances M == P (no compression possible).
	M int
	// Alpha is the earliness penalty per unit time, Alpha >= 0.
	Alpha int
	// Beta is the tardiness penalty per unit time, Beta >= 0.
	Beta int
	// Gamma is the compression penalty per unit of processing-time
	// reduction, Gamma >= 0. Unused when M == P.
	Gamma int
}

// MaxCompression returns the largest admissible reduction of the job's
// processing time, P - M.
func (j Job) MaxCompression() int { return j.P - j.M }

// Kind distinguishes the two problems of the paper.
type Kind int

const (
	// CDD is the Common Due-Date problem: minimize Σ α_i·E_i + β_i·T_i.
	CDD Kind = iota
	// UCDDCP is the Unrestricted Common Due-Date problem with Controllable
	// Processing Times: minimize Σ α_i·E_i + β_i·T_i + γ_i·X_i subject to
	// d ≥ Σ P_i.
	UCDDCP
	// EARLYWORK is early-work maximization on identical parallel machines
	// against a common due date (Li, arXiv:2007.12388): maximize the total
	// work executed before d. It is expressed internally as minimization
	// of the complementary total late work Σ_k max(0, load_k − d), so the
	// solver stack's cost budgets and atomic-min reductions apply
	// unchanged; maximal early work and minimal late work coincide because
	// their sum is the constant ΣP.
	EARLYWORK
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CDD:
		return "CDD"
	case UCDDCP:
		return "UCDDCP"
	case EARLYWORK:
		return "EARLYWORK"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Instance is one problem instance: a job set and a common due date.
type Instance struct {
	// Name identifies the instance (e.g. "cdd_n50_k3_h0.6").
	Name string
	// Kind selects the objective (CDD, UCDDCP or EARLYWORK).
	Kind Kind
	// Jobs are the jobs to schedule; len(Jobs) == n.
	Jobs []Job
	// D is the common due date.
	D int64
	// Machines is the number of identical parallel machines. Zero and one
	// both mean the single-machine problem of the paper (the zero value
	// keeps every pre-existing literal valid); use MachineCount for the
	// normalized count.
	Machines int
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// MachineCount returns the normalized machine count: Machines, with the
// zero value reading as 1 (the single-machine problem).
func (in *Instance) MachineCount() int {
	if in.Machines < 1 {
		return 1
	}
	return in.Machines
}

// GenomeLen returns the length of the delimiter-encoded solution genome:
// a permutation of n jobs plus m−1 machine separators (values ≥ n), whose
// maximal runs of job values map in order to machines 0..m−1. For
// single-machine instances this is exactly N(), so a genome degenerates
// to the plain job sequence of the paper.
func (in *Instance) GenomeLen() int { return in.N() + in.MachineCount() - 1 }

// GenomeCoded reports whether solutions for this instance are delimiter
// genomes scored machine-by-machine rather than single sequences on the
// paper's original kernels: any multi-machine instance, plus EARLYWORK
// (whose cost is the late-work closed form even on one machine). When
// false, solutions are plain job permutations and every evaluator takes
// the pre-generalization path, bit-identical to the single-machine stack.
func (in *Instance) GenomeCoded() bool {
	return in.MachineCount() > 1 || in.Kind == EARLYWORK
}

// SumP returns the sum of all uncompressed processing times.
func (in *Instance) SumP() int64 {
	var s int64
	for _, j := range in.Jobs {
		s += int64(j.P)
	}
	return s
}

// SumM returns the sum of all minimum processing times.
func (in *Instance) SumM() int64 {
	var s int64
	for _, j := range in.Jobs {
		s += int64(j.M)
	}
	return s
}

// Restrictive reports whether the due date is restrictive, i.e. smaller
// than the sum of the processing times. The OR-library CDD benchmark uses
// restrictive due dates d = ⌊h·ΣP⌋ with h < 1; UCDDCP requires d ≥ ΣP.
func (in *Instance) Restrictive() bool { return in.D < in.SumP() }

// Sentinel errors of instance validation and parsing; callers branch
// with errors.Is (the batch service maps them to 422 responses).
var (
	// ErrUnknownKind reports a Kind value or name outside the three
	// defined problems. Parsing fails closed on it.
	ErrUnknownKind = errors.New("unknown problem kind")
	// ErrMachines reports an invalid machine count (< 1 when explicitly
	// set; the zero value is read as 1).
	ErrMachines = errors.New("invalid machine count")
)

// Validate checks structural invariants of the instance, and that an
// upper bound on its objective stays below CostLimit. It returns a
// descriptive error for the first violated invariant, or nil.
func (in *Instance) Validate() error {
	if in.Kind != CDD && in.Kind != UCDDCP && in.Kind != EARLYWORK {
		return fmt.Errorf("problem: %w: Kind(%d)", ErrUnknownKind, int(in.Kind))
	}
	if in.Machines < 0 {
		return fmt.Errorf("problem: %w: %d machines", ErrMachines, in.Machines)
	}
	if len(in.Jobs) == 0 {
		return errors.New("problem: instance has no jobs")
	}
	if in.D < 0 {
		return fmt.Errorf("problem: negative due date %d", in.D)
	}
	for i, j := range in.Jobs {
		switch {
		case j.P < 1:
			return fmt.Errorf("problem: job %d has processing time %d < 1", i, j.P)
		case j.M < 1 || j.M > j.P:
			return fmt.Errorf("problem: job %d has minimum processing time %d outside [1,%d]", i, j.M, j.P)
		case j.Alpha < 0:
			return fmt.Errorf("problem: job %d has negative earliness penalty %d", i, j.Alpha)
		case j.Beta < 0:
			return fmt.Errorf("problem: job %d has negative tardiness penalty %d", i, j.Beta)
		case j.Gamma < 0:
			return fmt.Errorf("problem: job %d has negative compression penalty %d", i, j.Gamma)
		}
	}
	if in.Kind == UCDDCP && in.Restrictive() {
		return fmt.Errorf("problem: UCDDCP requires d >= ΣP (unrestricted), got d=%d < ΣP=%d", in.D, in.SumP())
	}
	if b := in.costBound(); b >= CostLimit {
		return fmt.Errorf("problem: %v objective bound %d reaches the cost limit 2^%d", in.Kind, b, CostBits)
	}
	return nil
}

// CostBits is the width of the objective values the solvers handle: the
// ensemble and GPU engines pack a cost and a chain index into one int64
// for their atomic-min reductions, and the cost gets CostBits of its bits.
const CostBits = 43

// CostLimit is the exclusive bound 2^CostBits on instance objectives:
// Validate rejects an instance when an upper bound on the objective of
// its schedules reaches it.
const CostLimit int64 = 1 << CostBits

// costBound returns an upper bound on the objective of the instance's
// schedules, saturated at CostLimit (so it never overflows):
//
//	CDD        Σ max(α_j, β_j) · ΣP — an optimally timed sequence
//	           completes every job within ΣP of d;
//	UCDDCP     the CDD bound plus Σ γ_j·(P_j − M_j), full compression;
//	EARLYWORK  ΣP, the total work (late work cannot exceed it).
//
// It assumes the per-job fields are non-negative, as Validate checks
// first.
func (in *Instance) costBound() int64 {
	var sumP, rate, comp int64
	for _, j := range in.Jobs {
		sumP = satAdd(sumP, int64(j.P))
		rate = satAdd(rate, int64(max(j.Alpha, j.Beta)))
		comp = satAdd(comp, satMul(int64(j.Gamma), int64(j.P-j.M)))
	}
	switch in.Kind {
	case EARLYWORK:
		return sumP
	case UCDDCP:
		return satAdd(satMul(rate, sumP), comp)
	default:
		return satMul(rate, sumP)
	}
}

// satAdd and satMul are non-negative addition and multiplication
// saturating at CostLimit.
func satAdd(a, b int64) int64 {
	if a >= CostLimit-b {
		return CostLimit
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a != 0 && b >= (CostLimit+a-1)/a {
		return CostLimit
	}
	return a * b
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Name: in.Name, Kind: in.Kind, D: in.D, Machines: in.Machines}
	out.Jobs = make([]Job, len(in.Jobs))
	copy(out.Jobs, in.Jobs)
	return out
}

// NewCDD builds a CDD instance from parallel parameter slices. The slices
// must have equal length. Minimum processing times are set to P (no
// compression) and γ to zero.
func NewCDD(name string, p, alpha, beta []int, d int64) (*Instance, error) {
	if len(p) != len(alpha) || len(p) != len(beta) {
		return nil, fmt.Errorf("problem: mismatched slice lengths p=%d alpha=%d beta=%d", len(p), len(alpha), len(beta))
	}
	in := &Instance{Name: name, Kind: CDD, D: d, Jobs: make([]Job, len(p))}
	for i := range p {
		in.Jobs[i] = Job{P: p[i], M: p[i], Alpha: alpha[i], Beta: beta[i]}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// NewUCDDCP builds a UCDDCP instance from parallel parameter slices.
func NewUCDDCP(name string, p, m, alpha, beta, gamma []int, d int64) (*Instance, error) {
	n := len(p)
	if len(m) != n || len(alpha) != n || len(beta) != n || len(gamma) != n {
		return nil, fmt.Errorf("problem: mismatched slice lengths (n=%d)", n)
	}
	in := &Instance{Name: name, Kind: UCDDCP, D: d, Jobs: make([]Job, n)}
	for i := range p {
		in.Jobs[i] = Job{P: p[i], M: m[i], Alpha: alpha[i], Beta: beta[i], Gamma: gamma[i]}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// NewEarlyWork builds an early-work-maximization instance: n jobs with
// processing times p on machines identical parallel machines against the
// common due date d. Early-work instances carry no earliness/tardiness
// penalties (the objective is the work itself), so α and β are zero and
// M = P.
func NewEarlyWork(name string, p []int, machines int, d int64) (*Instance, error) {
	if machines < 1 {
		return nil, fmt.Errorf("problem: %w: %d machines", ErrMachines, machines)
	}
	in := &Instance{Name: name, Kind: EARLYWORK, D: d, Machines: machines, Jobs: make([]Job, len(p))}
	for i := range p {
		in.Jobs[i] = Job{P: p[i], M: p[i]}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// PaperExample returns the 5-job instance of Table I of the paper. With the
// identity sequence and d = 16 the optimal CDD penalty is 81; with d = 22
// the optimal UCDDCP penalty for the identity sequence is 77.
func PaperExample(kind Kind) *Instance {
	p := []int{6, 5, 2, 4, 4}
	m := []int{5, 5, 2, 3, 3}
	alpha := []int{7, 9, 6, 9, 3}
	beta := []int{9, 5, 4, 3, 2}
	gamma := []int{5, 4, 3, 2, 1}
	if kind == CDD {
		in, err := NewCDD("paper-example-cdd", p, alpha, beta, 16)
		if err != nil {
			panic(err) // static data; cannot fail
		}
		return in
	}
	in, err := NewUCDDCP("paper-example-ucddcp", p, m, alpha, beta, gamma, 22)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return in
}
