package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/ucddcp"
)

// Randomized differential test of the device-side fitness path against
// the host evaluators on adversarial instance shapes (zero penalties,
// equal processing times, due dates straddling the restrictive boundary).
// The golden parity tests pin specific values; this sweep hunts for
// divergence anywhere in the input space the generators can reach — the
// device int32-row evaluation (the core row dispatch the fitness kernels
// call) and the kind's host evaluator must agree bit for bit on every
// sample.

// randomAdversarialCDD draws an instance from one of the shapes that have
// historically distinct code paths in the breakpoint walk.
func randomAdversarialCDD(rng *rand.Rand) *problem.Instance {
	n := 1 + rng.Intn(12)
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	equalP := rng.Intn(3) == 0
	pv := 1 + rng.Intn(10)
	sum := 0
	for i := 0; i < n; i++ {
		if equalP {
			p[i] = pv
		} else {
			p[i] = 1 + rng.Intn(20)
		}
		alpha[i] = rng.Intn(11) // zero allowed
		beta[i] = rng.Intn(16)  // zero allowed
		sum += p[i]
	}
	var d int64
	switch rng.Intn(4) {
	case 0:
		d = 0
	case 1:
		d = int64(sum) + int64(rng.Intn(3)) - 1 // straddle d = ΣP
		if d < 0 {
			d = 0
		}
	default:
		d = int64(rng.Intn(2*sum + 1))
	}
	in, err := problem.NewCDD("diff-cdd", p, alpha, beta, d)
	if err != nil {
		panic(err)
	}
	return in
}

func randomAdversarialUCDDCP(rng *rand.Rand) *problem.Instance {
	n := 1 + rng.Intn(10)
	p := make([]int, n)
	m := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	gamma := make([]int, n)
	sum := 0
	for i := 0; i < n; i++ {
		p[i] = 1 + rng.Intn(20)
		m[i] = 1 + rng.Intn(p[i]) // down to maximal compression capacity
		alpha[i] = rng.Intn(11)
		beta[i] = rng.Intn(16)
		gamma[i] = rng.Intn(6) // cheap compression so the rule fires often
		sum += p[i]
	}
	d := int64(sum) + int64(rng.Intn(sum+1))
	in, err := problem.NewUCDDCP("diff-ucddcp", p, m, alpha, beta, gamma, d)
	if err != nil {
		panic(err)
	}
	return in
}

func TestDeviceHostFitnessDifferentialCDD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		in := randomAdversarialCDD(rng)
		deviceHostDifferential(t, rng, trial, in, cdd.NewEvaluator(in))
	}
}

func TestDeviceHostFitnessDifferentialUCDDCP(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		in := randomAdversarialUCDDCP(rng)
		deviceHostDifferential(t, rng, trial, in, ucddcp.NewEvaluator(in))
	}
}

// deviceHostDifferential scores six random sequences of the instance
// through the fitness kernels' row dispatch and through the kind's host
// evaluator, and fails on the first disagreement.
func deviceHostDifferential(t *testing.T, rng *rand.Rand, trial int, in *problem.Instance, host core.Evaluator) {
	t.Helper()
	seq := problem.IdentitySequence(in.N())
	for s := 0; s < 6; s++ {
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		if dev, hc := deviceFitness(in, seq), host.Cost(seq); dev != hc {
			t.Fatalf("trial %d: device %d != host %d (d=%d jobs=%+v seq=%v)",
				trial, dev, hc, in.D, in.Jobs, seq)
		}
	}
}
