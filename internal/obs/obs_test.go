package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNilCollectorIsSafeAndOff(t *testing.T) {
	var c *Collector
	if c.Enabled() || c.Kernels() {
		t.Fatal("nil collector must report disabled")
	}
	// None of these may panic.
	c.Phase(PhaseFitness, time.Millisecond, 0.5)
	c.CountPhase(PhaseReduce)
	c.AddChain(ChainCounters{FullEvaluations: 3})
	c.AddFullEvals(1)
	c.AddAccepts(1)
	c.AddImprovements(1)
	c.AddBusy(time.Second)
	c.SetInterruptedAt("chain")
	if m := c.Snapshot(10, 2, 2, time.Second); m != nil {
		t.Fatalf("nil collector Snapshot = %+v, want nil", m)
	}
	if NewCollector(core.MetricsOff) != nil {
		t.Fatal("NewCollector(MetricsOff) must return nil")
	}
}

func TestCollectorLevels(t *testing.T) {
	counters := NewCollector(core.MetricsCounters)
	if !counters.Enabled() || counters.Kernels() {
		t.Fatalf("counters level: Enabled=%v Kernels=%v", counters.Enabled(), counters.Kernels())
	}
	kernels := NewCollector(core.MetricsKernels)
	if !kernels.Enabled() || !kernels.Kernels() {
		t.Fatalf("kernels level: Enabled=%v Kernels=%v", kernels.Enabled(), kernels.Kernels())
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(core.MetricsKernels)
	c.Phase(PhaseFitness, 2*time.Millisecond, 0.25)
	c.Phase(PhaseFitness, 3*time.Millisecond, 0.25)
	c.CountPhase(PhasePerturb)
	c.AddChain(ChainCounters{FullEvaluations: 2, Acceptances: 4, Improvements: 1})
	c.AddAccepts(6)
	c.AddBusy(400 * time.Millisecond)
	c.SetInterruptedAt("iteration")
	c.SetInterruptedAt("chain") // first write wins

	m := c.Snapshot(7, 3, 2, time.Second)
	if m == nil {
		t.Fatal("Snapshot returned nil for enabled collector")
	}
	if m.Level != core.MetricsKernels || m.Evaluations != 7 || m.Chains != 3 || m.Workers != 2 {
		t.Fatalf("header fields wrong: %+v", m)
	}
	if m.FullEvaluations != 2 || m.Acceptances != 10 || m.Improvements != 1 {
		t.Fatalf("counters wrong: %+v", m)
	}
	if m.InterruptedAt != "iteration" {
		t.Fatalf("InterruptedAt = %q, want first write %q", m.InterruptedAt, "iteration")
	}
	wantUtil := float64(400*time.Millisecond) / (float64(time.Second) * 2)
	if m.Utilization != wantUtil {
		t.Fatalf("Utilization = %v, want %v", m.Utilization, wantUtil)
	}
	fit := m.Phase("fitness")
	if fit.Count != 2 || fit.Wall != 5*time.Millisecond || fit.Sim != 0.5 {
		t.Fatalf("fitness phase = %+v", fit)
	}
	if p := m.Phase("perturb"); p.Count != 1 || p.Wall != 0 {
		t.Fatalf("perturb phase = %+v", p)
	}
	if p := m.Phase("accept"); p.Count != 0 {
		t.Fatalf("unused phase must be zero, got %+v", p)
	}
}

func TestCollectorConcurrentSimAccumulation(t *testing.T) {
	c := NewCollector(core.MetricsKernels)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Phase(PhaseFitness, time.Nanosecond, 0.5)
			}
		}()
	}
	wg.Wait()
	m := c.Snapshot(0, 1, 1, time.Second)
	fit := m.Phase("fitness")
	if fit.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", fit.Count, goroutines*per)
	}
	if want := 0.5 * goroutines * per; fit.Sim != want {
		t.Fatalf("Sim = %v, want %v", fit.Sim, want)
	}
	if fit.Wall != goroutines*per*time.Nanosecond {
		t.Fatalf("Wall = %v", fit.Wall)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "" || name == "phase(?)" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	r.Observe(nil) // ignored
	r.Observe(&core.Metrics{
		Evaluations: 10, FullEvaluations: 4,
		Acceptances: 3, Improvements: 1,
		Phases: []core.PhaseMetric{{Name: "fitness", Wall: time.Millisecond, Sim: 0.5, Count: 2}},
	})
	r.Observe(&core.Metrics{
		Evaluations: 5, InterruptedAt: "chain",
		Phases: []core.PhaseMetric{{Name: "fitness", Wall: time.Millisecond, Count: 1}},
	})

	s := r.Snapshot()
	if s.Runs != 2 || s.Interrupted != 1 {
		t.Fatalf("Runs=%d Interrupted=%d", s.Runs, s.Interrupted)
	}
	if s.Totals.Evaluations != 15 || s.Totals.FullEvaluations != 4 || s.Totals.Acceptances != 3 {
		t.Fatalf("totals = %+v", s.Totals)
	}
	fit := s.Phases["fitness"]
	if fit.Count != 3 || fit.Wall != 2*time.Millisecond || fit.Sim != 0.5 {
		t.Fatalf("fitness totals = %+v", fit)
	}
	if names := r.PhaseNames(); len(names) != 1 || names[0] != "fitness" {
		t.Fatalf("PhaseNames = %v", names)
	}

	var decoded RegistrySnapshot
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("Registry.String() is not valid JSON: %v", err)
	}
	if decoded.Runs != 2 || decoded.Totals.Evaluations != 15 {
		t.Fatalf("decoded snapshot = %+v", decoded)
	}
}
