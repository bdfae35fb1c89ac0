package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Count is the number of calls a batch span covers (micro probes time
	// a batch, not single calls).
	Count int `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that is still
// open.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time, count int) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record reserves an id and records a finished span in one step.
func (t *tracer) record(parent, op int64, name string, start, end time.Time, count int) {
	t.add(t.id(), parent, op, name, start, end, count)
}

// spanStat is the per-name summary of a trace: calls, total time, and
// self time (total minus the time covered by child spans).
type spanStat struct {
	Name  string
	Spans int
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) summary() []spanStat {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		calls := s.Count
		if calls == 0 {
			calls = 1
		}
		st.Spans++
		st.Calls += calls
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %10s %12s %12s\n", "span", "spans", "calls", "total_ms", "self_ms")
	for _, st := range t.summary() {
		fmt.Fprintf(w, "%-28s %8d %10d %12.3f %12.3f\n", st.Name, st.Spans, st.Calls, ms(st.Total), ms(st.Self))
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
