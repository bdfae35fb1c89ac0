// Command perfbench is the end-to-end and per-layer benchmark of the
// duedate library and the duedated service. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The workloads.
const (
	wlAnneal = "anneal-cdd"
	wlGPU    = "gpu-ucddcp"
	wlServe  = "serve-hot-cold"
)

var workloads = []string{wlAnneal, wlGPU, wlServe}

// setups is how many times a run sets up its workload; setup_s is their
// median and the last one is measured.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named values. A tail percentile without
// enough samples is not set but recorded in err.
type metrics struct {
	vals map[string]metric
	err  error
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	m.vals[name] = metric{v, unit}
}

func (m *metrics) setTail(name string, lat []float64, q float64) {
	v, err := windowTail(lat, q)
	if err != nil {
		m.err = errors.Join(m.err, fmt.Errorf("%s: %w", name, err))
		return
	}
	m.set(name, v, "ms")
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: anneal-cdd, gpu-ucddcp or serve-hot-cold")
		seed     = flag.Uint64("seed", 1, "workload seed: picks the instance set, op order and solver seeds")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		refs     = flag.String("refs", refsFile, "reference cost file")
		out      = flag.String("out", ".bench_build", "directory for trace output")
		regen    = flag.String("regen-refs", "", "recompute the reference costs into this file and exit")
	)
	flag.Parse()
	if *regen != "" {
		if err := regenRefs(*regen); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	rs, err := loadRefs(*refs)
	if err != nil {
		fail(err)
	}
	b := bench{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), refs: rs, out: *out}
	var res result
	switch *workload {
	case wlAnneal, wlGPU:
		res, err = b.library(*workload, *trace == 1)
	case wlServe:
		res, err = b.serve(*trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil && res.Attempted == 0 {
		fail(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fail(jerr)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// bench is one benchmark invocation.
type bench struct {
	seed uint64
	dur  time.Duration
	refs *refSet
	out  string
}

// timedSetups runs setup `setups` times and returns the median seconds;
// each setup but the last is torn down.
func timedSetups(setup func(last bool) error) (float64, error) {
	secs := make([]float64, setups)
	for i := range secs {
		start := time.Now()
		if err := setup(i == setups-1); err != nil {
			return 0, err
		}
		secs[i] = time.Since(start).Seconds()
	}
	runtime.GC()
	return median(secs), nil
}

func (b bench) library(name string, traced bool) (result, error) {
	var w *libWorkload
	setupS, err := timedSetups(func(bool) error {
		w = newLibWorkload(name, b.seed, b.refs)
		// Warm the op path: first-use allocations and lazy tables.
		w.op(context.Background(), 0, nil)
		return nil
	})
	if err != nil {
		return result{}, err
	}
	if !traced {
		r := w.run(b.dur, 0, nil)
		failed, verr := w.verify(r)
		m := w.endToEnd(r, failed)
		m.set("setup_s", setupS, "s")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		return finish(len(r.ops), failed, m, verr)
	}
	tr := newTracer()
	plain := w.run(b.dur/2, 0, nil)
	withTrace := w.run(b.dur/2, 0, tr)
	failed, verr := w.verify(plain)
	f2, verr2 := w.verify(withTrace)
	failed += f2
	l := newLayers(b.seed, b.refs, tr)
	l.overhead(len(plain.ops), plain.wall, len(withTrace.ops), withTrace.wall)
	l.fromLib(name, withTrace, true)
	perr := l.probe(name)
	return b.finishTraced(name, len(plain.ops)+len(withTrace.ops)+l.attempted, failed+l.failed, l, tr,
		errors.Join(verr, verr2, perr))
}

func (b bench) serve(traced bool) (result, error) {
	var w *serveWorkload
	setupS, err := timedSetups(func(last bool) error {
		var err error
		w, err = newServeWorkload(b.seed, b.refs)
		if err == nil && !last {
			w.close()
		}
		return err
	})
	if err != nil {
		return result{}, err
	}
	defer w.close()
	if !traced {
		r := w.run(b.dur, 0, nil)
		v := w.verify(r)
		m := w.endToEnd(r, v)
		m.set("setup_s", setupS, "s")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		return finish(len(r.res), v.failed, m, v.err)
	}
	tr := newTracer()
	plain := w.run(b.dur/2, 0, nil)
	withTrace := w.run(b.dur/2, 0, tr)
	v1, v2 := w.verify(plain), w.verify(withTrace)
	l := newLayers(b.seed, b.refs, tr)
	l.overhead(len(plain.res), plain.wall, len(withTrace.res), withTrace.wall)
	l.fromServe(w, withTrace, v2)
	perr := l.probe(wlServe)
	return b.finishTraced(wlServe, len(plain.res)+len(withTrace.res)+l.attempted, v1.failed+v2.failed+l.failed, l, tr,
		errors.Join(v1.err, v2.err, perr))
}

// finish assembles the result of an untraced run.
func finish(attempted, failed int, m metrics, verr error) (result, error) {
	err := errors.Join(verr, m.err)
	return result{Correct: err == nil && failed == 0, Attempted: attempted, Failed: failed, Metrics: m.vals}, err
}

// finishTraced writes the spans, prints the per-layer table and
// assembles the result of a traced run.
func (b bench) finishTraced(name string, attempted, failed int, l *layers, tr *tracer, err error) (result, error) {
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if werr := tr.write(path); werr != nil {
		err = errors.Join(err, werr)
	}
	fmt.Printf("# %s seed %d: %d spans written to %s\n", name, b.seed, len(tr.spans), path)
	tr.printSummary(os.Stdout)
	names := make([]string, 0, len(l.m.vals))
	for k := range l.m.vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %16s %s\n", "layer metric", "value", "unit")
	for _, k := range names {
		v := l.m.vals[k]
		fmt.Printf("%-28s %16.6g %s\n", k, v.Value, v.Unit)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			err = errors.Join(err, fmt.Errorf("layer metric %s is not a number", k))
		}
	}
	return finish(attempted, failed, l.m, err)
}
