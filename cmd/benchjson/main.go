// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark numbers can be committed, diffed and consumed by
// tooling without re-parsing the bench format.
//
//	go test -run '^$' -bench 'BenchmarkEvaluator' -benchmem . | benchjson -out BENCH_evaluator.json
//
// Each benchmark line becomes one record with its iteration count,
// ns/op, and any additional reported metrics (B/op, allocs/op, custom
// b.ReportMetric units). Each record carries the package of the most
// recent "pkg:" line, so input concatenated from several `go test` runs
// keeps every row attributed to its own package; the remaining context
// lines (goos/goarch/cpu) are captured into the header, together with the
// GOMAXPROCS the rows ran at (their -N name suffix) and the Go version
// benchjson was built with (the toolchain of the `go test` run when both
// come from the same pipeline). When both a
// full-evaluation benchmark and its Delta counterpart appear
// (BenchmarkEvaluatorCDD vs BenchmarkEvaluatorCDDDelta at the same
// size), the speedup ratio is computed into the summary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the emitted JSON document.
type Doc struct {
	Context    map[string]string  `json:"context,omitempty"`
	Benchmarks []Bench            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// parse reads `go test -bench` text and builds the document, stamping
// each benchmark row with the package of the "pkg:" line preceding it.
// When any row parses, the header also records the rows' GOMAXPROCS
// values (distinct, in order of appearance, comma-separated) as
// "gomaxprocs" and runtime.Version() as "go".
func parse(r io.Reader) (Doc, error) {
	doc := Doc{Context: map[string]string{}}
	pkg := ""
	var procs []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "Benchmark"):
			if b, p, ok := parseBench(line); ok {
				b.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, b)
				if p != "" && !slices.Contains(procs, p) {
					procs = append(procs, p)
				}
			}
		default:
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if k == "pkg" {
				pkg = v
				continue
			}
			doc.Context[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return Doc{}, err
	}
	if len(procs) > 0 {
		doc.Context["gomaxprocs"] = strings.Join(procs, ",")
	}
	if len(doc.Benchmarks) > 0 {
		doc.Context["go"] = runtime.Version()
	}
	doc.Speedups = speedups(doc.Benchmarks)
	return doc, nil
}

// parseBench parses one result line, returning the record and the
// -GOMAXPROCS suffix stripped from its name ("" when the name has none):
//
//	BenchmarkX/n100-8   123456   987 ns/op   0 B/op   0 allocs/op   1.5 x-label
func parseBench(line string) (Bench, string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, "", false
	}
	name, procs := fields[0], ""
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], name[i+1:]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, "", false
	}
	b := Bench{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[fields[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, procs, true
}

// speedups derives "<base>/<size>: full ns / delta ns" ratios for every
// benchmark pair named <base>Delta/<size> and <base>/<size>, plus
// batch-vs-single per-sequence ratios for every
// BenchmarkBatchEvaluator/<kind>/<n>/B<batch> row against its same-row
// /single baseline (both report the ns/seq metric; a ratio above 1
// means the batch call scores a sequence faster than single calls on
// the identical workload).
func speedups(benches []Bench) map[string]float64 {
	byName := map[string]float64{}
	singleSeq := map[string]float64{}
	for _, b := range benches {
		byName[b.Name] = b.NsPerOp
		if family, mode, ok := strings.Cut(strings.TrimPrefix(b.Name, "BenchmarkBatchEvaluator/"), "/single"); ok && mode == "" {
			singleSeq[family] = b.Metrics["ns/seq"]
		}
	}
	out := map[string]float64{}
	for _, b := range benches {
		if base, size, ok := strings.Cut(b.Name, "Delta/"); ok {
			if full, exists := byName[base+"/"+size]; exists && b.NsPerOp > 0 {
				out[strings.TrimPrefix(base, "Benchmark")+"/"+size] = full / b.NsPerOp
			}
			continue
		}
		rest := strings.TrimPrefix(b.Name, "BenchmarkBatchEvaluator/")
		if rest == b.Name {
			continue
		}
		if family, mode, ok := strings.Cut(rest, "/B"); ok && mode != "" {
			if single, perSeq := singleSeq[family], b.Metrics["ns/seq"]; single > 0 && perSeq > 0 {
				out["BatchEvaluator/"+rest] = single / perSeq
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
