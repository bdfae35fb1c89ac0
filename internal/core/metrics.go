package core

import "time"

// MetricsLevel selects how much instrumentation a solver collects.
// Collection is opt-in: the zero value disables it entirely, so the hot
// path of an uninstrumented run pays only a nil check.
type MetricsLevel int

const (
	// MetricsOff collects nothing; Result.Metrics stays nil.
	MetricsOff MetricsLevel = iota
	// MetricsCounters collects the cheap per-chain counters (evaluations,
	// full passes, acceptances, best-improvements) and the
	// ensemble aggregates, but no per-phase timers.
	MetricsCounters
	// MetricsKernels additionally times every phase/kernel: host
	// wall-clock per launch plus the simulated device seconds between the
	// cudasim events bracketing it.
	MetricsKernels
)

// String implements fmt.Stringer.
func (l MetricsLevel) String() string {
	switch l {
	case MetricsOff:
		return "off"
	case MetricsCounters:
		return "counters"
	case MetricsKernels:
		return "kernels"
	default:
		return "MetricsLevel(" + itoa(int(l)) + ")"
	}
}

// itoa avoids pulling strconv into the hot-path package for one
// diagnostic string.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// PhaseMetric is the accounting of one solver phase — one of the paper's
// kernels (perturbation, fitness, acceptance, reduction) or a host-side
// stage (T₀ estimation, chain execution, the persistent kernel).
type PhaseMetric struct {
	// Name identifies the phase ("fitness", "perturb", "t0", …).
	Name string `json:"name"`
	// Wall is the accumulated host wall-clock time across all launches.
	Wall time.Duration `json:"wallNs"`
	// Sim is the accumulated simulated device seconds (zero for phases
	// that never touch the device).
	Sim float64 `json:"simSeconds"`
	// Count is the number of launches/executions of the phase.
	Count int64 `json:"count"`
}

// Metrics is the instrumentation snapshot of one solver run, attached to
// Result.Metrics when the run was configured with a MetricsLevel above
// MetricsOff. Counter fields are exact and deterministic for a fixed
// seed (bit-identical across Workers settings and across engines sharing
// a trajectory); timing fields are measurements and vary run to run.
type Metrics struct {
	// Level is the collection level the run used.
	Level MetricsLevel `json:"level"`
	// Phases holds the per-phase timers, ordered by phase. Only populated
	// at MetricsKernels; Count is maintained at every enabled level.
	Phases []PhaseMetric `json:"phases,omitempty"`
	// Evaluations is the total fitness-function invocation count (equal
	// to Result.Evaluations).
	Evaluations int64 `json:"evaluations"`
	// FullEvaluations counts the full O(n) passes the engine's own
	// counters saw: every SA and DPSO engine scores each candidate with
	// one, so it equals Evaluations on those engines.
	FullEvaluations int64 `json:"fullEvaluations"`
	// Acceptances counts accepted metropolis moves (personal-best
	// refreshes for DPSO); Improvements counts moves that improved a
	// chain's best-so-far.
	Acceptances  int64 `json:"acceptances"`
	Improvements int64 `json:"improvements"`
	// Chains is the ensemble size (threads on the GPU engines) and
	// Workers the host goroutine bound the run was configured with.
	Chains  int `json:"chains"`
	Workers int `json:"workers"`
	// WorkerBusy is the summed busy time of all chain executions;
	// Utilization is WorkerBusy/(Workers·Elapsed), the fraction of the
	// worker pool kept busy (zero when untracked).
	WorkerBusy  time.Duration `json:"workerBusyNs"`
	Utilization float64       `json:"utilization"`
	// InterruptedAt names the boundary the run stopped at when it was cut
	// short ("chain", "level", "generation", "iteration",
	// "kernel-iteration"); empty for completed runs.
	InterruptedAt string `json:"interruptedAt,omitempty"`
	// AutoPick names the pairing the AUTO meta-driver dispatched to
	// ("EXACT-DP/cpu-serial", "SA/cpu-parallel", …); empty outside AUTO
	// runs.
	AutoPick string `json:"autoPick,omitempty"`
	// RaceCandidates lists the candidate pairings an AUTO race launched,
	// in launch order; empty when the calibration model picked directly.
	RaceCandidates []string `json:"raceCandidates,omitempty"`
	// RaceWinner names the candidate whose best-so-far won the race, and
	// RaceReason states why ("leader-at-checkpoint", "best-at-deadline",
	// "dp-certificate", "model-pick").
	RaceWinner string `json:"raceWinner,omitempty"`
	RaceReason string `json:"raceReason,omitempty"`
}

// Phase returns the metric for one phase name (zero value when the phase
// never ran).
func (m *Metrics) Phase(name string) PhaseMetric {
	if m == nil {
		return PhaseMetric{}
	}
	for _, p := range m.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseMetric{}
}
