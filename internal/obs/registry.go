package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Registry aggregates metrics snapshots across solver runs into a
// process-wide view a monitoring endpoint can export. Its String method
// renders the snapshot as JSON, satisfying expvar.Var so a server can
// `expvar.Publish("duedate", registry)` without an adapter. The zero
// value is ready to use; methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	runs   int64
	interr int64
	totals RegistryTotals
	phases map[string]*PhaseTotals
}

// RegistryTotals are the counter sums across all observed runs.
type RegistryTotals struct {
	Evaluations     int64 `json:"evaluations"`
	FullEvaluations int64 `json:"fullEvaluations"`
	Acceptances     int64 `json:"acceptances"`
	Improvements    int64 `json:"improvements"`
}

// PhaseTotals are one phase's accumulated timing across all observed
// runs.
type PhaseTotals struct {
	Wall  time.Duration `json:"wallNs"`
	Sim   float64       `json:"simSeconds"`
	Count int64         `json:"count"`
}

// RegistrySnapshot is the exported view of a Registry.
type RegistrySnapshot struct {
	Runs        int64                  `json:"runs"`
	Interrupted int64                  `json:"interrupted"`
	Totals      RegistryTotals         `json:"totals"`
	Phases      map[string]PhaseTotals `json:"phases,omitempty"`
}

// Observe folds one run's metrics into the registry. A nil metrics (an
// uninstrumented run) is ignored.
func (r *Registry) Observe(m *core.Metrics) {
	if m == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	if m.InterruptedAt != "" {
		r.interr++
	}
	r.totals.Evaluations += m.Evaluations
	r.totals.FullEvaluations += m.FullEvaluations
	r.totals.Acceptances += m.Acceptances
	r.totals.Improvements += m.Improvements
	for _, p := range m.Phases {
		if r.phases == nil {
			r.phases = make(map[string]*PhaseTotals)
		}
		pt := r.phases[p.Name]
		if pt == nil {
			pt = &PhaseTotals{}
			r.phases[p.Name] = pt
		}
		pt.Wall += p.Wall
		pt.Sim += p.Sim
		pt.Count += p.Count
	}
}

// Snapshot returns a copy of the aggregated state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Runs:        r.runs,
		Interrupted: r.interr,
		Totals:      r.totals,
	}
	if len(r.phases) > 0 {
		s.Phases = make(map[string]PhaseTotals, len(r.phases))
		for name, pt := range r.phases {
			s.Phases[name] = *pt
		}
	}
	return s
}

// PhaseNames returns the names of all phases observed so far, sorted.
func (r *Registry) PhaseNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.phases))
	for name := range r.phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the snapshot as JSON; with it Registry satisfies
// expvar.Var.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// ServeHTTP writes the registry snapshot as indented JSON, so a
// *Registry mounts directly as a monitoring endpoint — the solver half of
// the duedated server's /metrics payload is exactly this snapshot.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

var (
	_ expvar.Var   = (*Registry)(nil)
	_ http.Handler = (*Registry)(nil)
)
