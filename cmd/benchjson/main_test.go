package main

import (
	"runtime"
	"strings"
	"testing"
)

// TestParseStampsPackagePerRow feeds the concatenated output of two
// `go test -bench` runs and checks each row keeps its own package while
// the shared context lines still reach the header.
func TestParseStampsPackagePerRow(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 1.00GHz
BenchmarkEvaluatorCDD/n100-2   	 8948008	       136.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkEvaluatorCDDDelta/n100-2   	 6000000	       173.0 ns/op
PASS
ok  	repro	3.1s
goos: linux
goarch: amd64
pkg: repro/internal/server
cpu: Test CPU @ 1.00GHz
BenchmarkServeSolveAllocs-2   	    2000	     41000 ns/op	       0 allocs/op
PASS
ok  	repro/internal/server	1.2s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkEvaluatorCDD/n100":      "repro",
		"BenchmarkEvaluatorCDDDelta/n100": "repro",
		"BenchmarkServeSolveAllocs":       "repro/internal/server",
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for _, b := range doc.Benchmarks {
		if b.Pkg != want[b.Name] {
			t.Errorf("%s: pkg %q, want %q", b.Name, b.Pkg, want[b.Name])
		}
	}
	if _, ok := doc.Context["pkg"]; ok {
		t.Errorf("context still carries a single pkg: %v", doc.Context)
	}
	if doc.Context["cpu"] != "Test CPU @ 1.00GHz" || doc.Context["goos"] != "linux" {
		t.Errorf("context lost machine lines: %v", doc.Context)
	}
	if r := doc.Speedups["EvaluatorCDD/n100"]; r < 0.78 || r > 0.79 {
		t.Errorf("delta speedup %v, want 136.3/173.0", r)
	}
}

// TestParseRecordsFingerprint checks the header carries the machine
// fingerprint a ledger row is compared under: the GOMAXPROCS taken from
// the rows' -N suffix (distinct values in order, when runs are
// concatenated) and the Go version, while the row names lose the suffix.
func TestParseRecordsFingerprint(t *testing.T) {
	in := `goos: linux
pkg: repro
BenchmarkEvaluatorUCDDCP/n100-2   	 1000000	      1000 ns/op
BenchmarkBatchEvaluator/UCDDCP/n100/B16-2   	  100000	     16000 ns/op	      1000 ns/seq
BenchmarkEvaluatorUCDDCP/n100-8   	 1000000	       900 ns/op
BenchmarkNoSuffix   	 1000000	       900 ns/op
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Context["gomaxprocs"]; got != "2,8" {
		t.Errorf("gomaxprocs = %q, want %q", got, "2,8")
	}
	if got := doc.Context["go"]; got != runtime.Version() {
		t.Errorf("go = %q, want %q", got, runtime.Version())
	}
	for _, b := range doc.Benchmarks {
		if strings.HasSuffix(b.Name, "-2") || strings.HasSuffix(b.Name, "-8") {
			t.Errorf("row %q keeps its GOMAXPROCS suffix", b.Name)
		}
	}

	empty, err := parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.Context["go"]; ok {
		t.Errorf("input without benchmark rows got a fingerprint: %v", empty.Context)
	}
}
