// Package orlib provides the benchmark instances of the paper's
// evaluation: the OR-library common due-date set of Biskup and Feldmann
// (files sch10 … sch1000) for the CDD problem and the controllable
// extension of Awasthi et al. for UCDDCP.
//
// The module is offline, so the original files are reproduced by a
// deterministic generator drawing from the published distributions:
// processing times p_i ~ U[1,20], earliness penalties α_i ~ U[1,10] and
// tardiness penalties β_i ~ U[1,15]; the restrictive due date of instance
// variant h is d = ⌊h·Σp⌋ with h ∈ {0.2, 0.4, 0.6, 0.8}. With k = 10
// instances per job size this yields the paper's "40 different instances
// for each job size". Read and Write speak the OR-library file format
// (a header line with the instance count, then n rows of "p α β" per
// instance), so genuine sch files can be dropped in when available.
//
// For UCDDCP (whose original data from [8] is not published in the
// OR-library) the generator extends each job with a minimum processing
// time M_i ~ U[⌈p_i/2⌉, p_i] and a compression penalty γ_i ~ U[1,10], and
// sets the unrestricted due date d = ⌈1.1·Σp⌉ ≥ Σp.
package orlib

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/problem"
	"repro/internal/xrand"
)

// Hs are the OR-library restrictive due-date factors.
var Hs = []float64{0.2, 0.4, 0.6, 0.8}

// InstancesPerSize is the OR-library instance count per job size.
const InstancesPerSize = 10

// DefaultSeed is the generator seed used by the experiment harness; any
// fixed value reproduces a fixed benchmark.
const DefaultSeed = 0x5CD_D2016

// Raw is one generated OR-library record before a due date is applied.
type Raw struct {
	P     []int
	M     []int // minimum processing times (UCDDCP only; nil for CDD)
	Alpha []int
	Beta  []int
	Gamma []int // compression penalties (UCDDCP only; nil for CDD)
}

// N returns the job count of the record.
func (r *Raw) N() int { return len(r.P) }

// SumP returns the record's total processing time.
func (r *Raw) SumP() int64 {
	var s int64
	for _, p := range r.P {
		s += int64(p)
	}
	return s
}

// GenerateCDD deterministically generates k OR-library-style CDD records
// of the given size. The same (size, k, seed) always yields the same
// records, independent of call order.
func GenerateCDD(size, k int, seed uint64) []*Raw {
	raws := make([]*Raw, k)
	for i := range raws {
		rng := xrand.NewStream(seed, uint64(size)<<20|uint64(i))
		r := &Raw{
			P:     make([]int, size),
			Alpha: make([]int, size),
			Beta:  make([]int, size),
		}
		for j := 0; j < size; j++ {
			r.P[j] = 1 + rng.Intn(20)
			r.Alpha[j] = 1 + rng.Intn(10)
			r.Beta[j] = 1 + rng.Intn(15)
		}
		raws[i] = r
	}
	return raws
}

// GenerateUCDDCP deterministically generates k controllable records of
// the given size per the distribution documented in the package comment.
func GenerateUCDDCP(size, k int, seed uint64) []*Raw {
	raws := make([]*Raw, k)
	for i := range raws {
		rng := xrand.NewStream(seed^0xC0117801, uint64(size)<<20|uint64(i))
		r := &Raw{
			P:     make([]int, size),
			M:     make([]int, size),
			Alpha: make([]int, size),
			Beta:  make([]int, size),
			Gamma: make([]int, size),
		}
		for j := 0; j < size; j++ {
			p := 1 + rng.Intn(20)
			r.P[j] = p
			lo := (p + 1) / 2
			r.M[j] = lo + rng.Intn(p-lo+1)
			r.Alpha[j] = 1 + rng.Intn(10)
			r.Beta[j] = 1 + rng.Intn(15)
			r.Gamma[j] = 1 + rng.Intn(10)
		}
		raws[i] = r
	}
	return raws
}

// GenerateEarlyWork deterministically generates k early-work records of
// the given size: processing times p_i ~ U[1,20] only (the objective has
// no penalty rates). The same (size, k, seed) always yields the same
// records.
func GenerateEarlyWork(size, k int, seed uint64) []*Raw {
	raws := make([]*Raw, k)
	for i := range raws {
		rng := xrand.NewStream(seed^0xEA871, uint64(size)<<20|uint64(i))
		r := &Raw{P: make([]int, size)}
		for j := 0; j < size; j++ {
			r.P[j] = 1 + rng.Intn(20)
		}
		raws[i] = r
	}
	return raws
}

// EarlyWorkInstance builds the m-machine early-work instance of a record
// with the restrictive per-machine due date d = max(1, ⌊h·Σp/m⌋): each
// machine carries ≈ Σp/m load, so h < 1 keeps the due date binding the
// same way the OR-library h factors do on one machine.
func EarlyWorkInstance(raw *Raw, size, k, machines int, h float64) (*problem.Instance, error) {
	d := int64(h * float64(raw.SumP()) / float64(machines))
	if d < 1 {
		d = 1
	}
	in, err := problem.NewEarlyWork(fmt.Sprintf("ew%d/m%d/k%d/h%.1f", size, machines, k, h), raw.P, machines, d)
	if err != nil {
		return nil, fmt.Errorf("orlib: building ew%d m=%d k=%d h=%.1f: %w", size, machines, k, h, err)
	}
	return in, nil
}

// BenchmarkEarlyWork returns the early-work benchmark slice for one job
// size and machine count: k records × the four h factors = 4k instances.
func BenchmarkEarlyWork(size, machines, k int, seed uint64) ([]*problem.Instance, error) {
	raws := GenerateEarlyWork(size, k, seed)
	out := make([]*problem.Instance, 0, len(raws)*len(Hs))
	for ki, raw := range raws {
		for _, h := range Hs {
			in, err := EarlyWorkInstance(raw, size, ki, machines, h)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// CDDInstance applies due-date factor h to record k of the given size,
// producing a named problem instance (the OR-library convention
// "schN/k/h").
func CDDInstance(raw *Raw, size, k int, h float64) (*problem.Instance, error) {
	d := int64(h * float64(raw.SumP()))
	in, err := problem.NewCDD(fmt.Sprintf("sch%d/k%d/h%.1f", size, k, h), raw.P, raw.Alpha, raw.Beta, d)
	if err != nil {
		return nil, fmt.Errorf("orlib: building sch%d k=%d h=%.1f: %w", size, k, h, err)
	}
	return in, nil
}

// UCDDCPInstance builds the unrestricted controllable instance of a
// record with d = ⌈1.1·Σp⌉.
func UCDDCPInstance(raw *Raw, size, k int) (*problem.Instance, error) {
	sum := raw.SumP()
	d := sum + (sum+9)/10
	in, err := problem.NewUCDDCP(fmt.Sprintf("ucddcp%d/k%d", size, k), raw.P, raw.M, raw.Alpha, raw.Beta, raw.Gamma, d)
	if err != nil {
		return nil, fmt.Errorf("orlib: building ucddcp%d k=%d: %w", size, k, err)
	}
	return in, nil
}

// BenchmarkCDD returns the paper's full CDD benchmark slice for one job
// size: k records × the four h factors = 4k instances.
func BenchmarkCDD(size, k int, seed uint64) ([]*problem.Instance, error) {
	raws := GenerateCDD(size, k, seed)
	out := make([]*problem.Instance, 0, len(raws)*len(Hs))
	for ki, raw := range raws {
		for _, h := range Hs {
			in, err := CDDInstance(raw, size, ki, h)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// BenchmarkUCDDCP returns the UCDDCP benchmark slice for one job size
// (k instances; the unrestricted problem has no h sweep).
func BenchmarkUCDDCP(size, k int, seed uint64) ([]*problem.Instance, error) {
	raws := GenerateUCDDCP(size, k, seed)
	out := make([]*problem.Instance, 0, len(raws))
	for ki, raw := range raws {
		in, err := UCDDCPInstance(raw, size, ki)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// WriteCDD emits records in the OR-library sch file format: a header line
// with the record count, then n lines of "p α β" per record.
func WriteCDD(w io.Writer, raws []*Raw) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(raws))
	for _, r := range raws {
		if r.M != nil || r.Gamma != nil {
			return fmt.Errorf("orlib: WriteCDD given a controllable record; use WriteUCDDCP")
		}
		for j := range r.P {
			fmt.Fprintf(bw, "%d %d %d\n", r.P[j], r.Alpha[j], r.Beta[j])
		}
	}
	return bw.Flush()
}

// MaxRecords bounds the record count the readers accept. The largest
// genuine OR-library file holds 10 records; a corrupt or hostile header
// must fail fast instead of driving a multi-gigabyte allocation.
const MaxRecords = 1 << 20

// ReadCDD parses the OR-library sch format; n is the per-record job count
// (implied by the original file name, e.g. 10 for sch10).
func ReadCDD(r io.Reader, n int) ([]*Raw, error) {
	br := bufio.NewReader(r)
	var k int
	if _, err := fmt.Fscan(br, &k); err != nil {
		return nil, fmt.Errorf("orlib: reading record count: %w", err)
	}
	if k < 0 || k > MaxRecords {
		return nil, fmt.Errorf("orlib: record count %d outside [0,%d]", k, MaxRecords)
	}
	raws := make([]*Raw, k)
	for i := 0; i < k; i++ {
		raw := &Raw{P: make([]int, n), Alpha: make([]int, n), Beta: make([]int, n)}
		for j := 0; j < n; j++ {
			if _, err := fmt.Fscan(br, &raw.P[j], &raw.Alpha[j], &raw.Beta[j]); err != nil {
				return nil, fmt.Errorf("orlib: record %d job %d: %w", i, j, err)
			}
		}
		raws[i] = raw
	}
	return raws, nil
}

// WriteUCDDCP emits controllable records: a header line with the count,
// then n lines of "p m α β γ" per record.
func WriteUCDDCP(w io.Writer, raws []*Raw) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(raws))
	for _, r := range raws {
		if r.M == nil || r.Gamma == nil {
			return fmt.Errorf("orlib: WriteUCDDCP given a plain CDD record; use WriteCDD")
		}
		for j := range r.P {
			fmt.Fprintf(bw, "%d %d %d %d %d\n", r.P[j], r.M[j], r.Alpha[j], r.Beta[j], r.Gamma[j])
		}
	}
	return bw.Flush()
}

// WriteEarlyWork emits early-work records: a header line with the count,
// then n lines of "p" per record.
func WriteEarlyWork(w io.Writer, raws []*Raw) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(raws))
	for _, r := range raws {
		if r.Alpha != nil || r.M != nil {
			return fmt.Errorf("orlib: WriteEarlyWork given a penalized record; use WriteCDD or WriteUCDDCP")
		}
		for j := range r.P {
			fmt.Fprintf(bw, "%d\n", r.P[j])
		}
	}
	return bw.Flush()
}

// ReadEarlyWork parses the early-work record format of WriteEarlyWork.
func ReadEarlyWork(r io.Reader, n int) ([]*Raw, error) {
	br := bufio.NewReader(r)
	var k int
	if _, err := fmt.Fscan(br, &k); err != nil {
		return nil, fmt.Errorf("orlib: reading record count: %w", err)
	}
	if k < 0 || k > MaxRecords {
		return nil, fmt.Errorf("orlib: record count %d outside [0,%d]", k, MaxRecords)
	}
	raws := make([]*Raw, k)
	for i := 0; i < k; i++ {
		raw := &Raw{P: make([]int, n)}
		for j := 0; j < n; j++ {
			if _, err := fmt.Fscan(br, &raw.P[j]); err != nil {
				return nil, fmt.Errorf("orlib: record %d job %d: %w", i, j, err)
			}
		}
		raws[i] = raw
	}
	return raws, nil
}

// ReadUCDDCP parses the controllable record format of WriteUCDDCP.
func ReadUCDDCP(r io.Reader, n int) ([]*Raw, error) {
	br := bufio.NewReader(r)
	var k int
	if _, err := fmt.Fscan(br, &k); err != nil {
		return nil, fmt.Errorf("orlib: reading record count: %w", err)
	}
	if k < 0 || k > MaxRecords {
		return nil, fmt.Errorf("orlib: record count %d outside [0,%d]", k, MaxRecords)
	}
	raws := make([]*Raw, k)
	for i := 0; i < k; i++ {
		raw := &Raw{P: make([]int, n), M: make([]int, n), Alpha: make([]int, n), Beta: make([]int, n), Gamma: make([]int, n)}
		for j := 0; j < n; j++ {
			if _, err := fmt.Fscan(br, &raw.P[j], &raw.M[j], &raw.Alpha[j], &raw.Beta[j], &raw.Gamma[j]); err != nil {
				return nil, fmt.Errorf("orlib: record %d job %d: %w", i, j, err)
			}
		}
		raws[i] = raw
	}
	return raws, nil
}
