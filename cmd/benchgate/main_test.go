package main

import (
	"io"
	"strings"
	"testing"
)

// benchOutput is `go test -bench Kernel` output in the shape CI feeds
// the gate: two counts of each kernel benchmark.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkKernel-2        	  769812	      3000 ns/op	    333168 cycles/sec	       9 B/op	       0 allocs/op
BenchmarkKernelCMESH-2   	  535468	      5000 ns/op	    187445 cycles/sec	       1 B/op	       0 allocs/op
BenchmarkKernel-2        	  715237	      3400 ns/op	    318630 cycles/sec	       9 B/op	       0 allocs/op
BenchmarkKernelCMESH-2   	  530006	      5400 ns/op	    191804 cycles/sec	       1 B/op	       0 allocs/op
PASS
`

func parse(t *testing.T, out string) map[string][]sample {
	t.Helper()
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func cmeshGate(maxRatio float64) baselineFile {
	return baselineFile{RatioGates: []ratioGate{{Benchmark: "BenchmarkKernelCMESH", Reference: "BenchmarkKernel", MaxRatio: maxRatio}}}
}

func TestParseBenchStripsProcsAndAveragesCounts(t *testing.T) {
	results := parse(t, benchOutput)
	s := mean(results["BenchmarkKernelCMESH"])
	if len(results["BenchmarkKernelCMESH"]) != 2 || s.nsPerOp != 5200 || s.procs != 2 || !s.hasAllocs || s.allocsPerOp != 0 {
		t.Fatalf("BenchmarkKernelCMESH parsed as %+v from %d samples", s, len(results["BenchmarkKernelCMESH"]))
	}
}

// The means are 5200 and 3200 ns/op, a ratio of 1.625.
func TestRatioGatePasses(t *testing.T) {
	var out strings.Builder
	checked, failed := gate(&out, cmeshGate(3.0), parse(t, benchOutput), 0.2, 0)
	if checked != 1 || failed != 0 {
		t.Fatalf("checked %d, failed %d, want 1 and 0:\n%s", checked, failed, out.String())
	}
	if !strings.Contains(out.String(), "1.62x") {
		t.Errorf("report does not state the ratio:\n%s", out.String())
	}
}

func TestRatioGateFails(t *testing.T) {
	var out strings.Builder
	if checked, failed := gate(&out, cmeshGate(1.5), parse(t, benchOutput), 0.2, 0); checked != 1 || failed != 1 {
		t.Fatalf("checked %d, failed %d, want 1 and 1:\n%s", checked, failed, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("report does not say FAIL:\n%s", out.String())
	}
}

// A ratio gate whose benchmarks did not run cannot pass unchecked.
func TestRatioGateMissingBenchmarkFails(t *testing.T) {
	onlyPEARL := "BenchmarkKernel-2   100   3000 ns/op   0 allocs/op\n"
	for name, out := range map[string]string{"benchmark missing": onlyPEARL, "both missing": "PASS\n"} {
		if checked, failed := gate(io.Discard, cmeshGate(3.0), parse(t, out), 0.2, 0); checked != 1 || failed != 1 {
			t.Errorf("%s: checked %d, failed %d, want 1 and 1", name, checked, failed)
		}
	}
}

func TestAbsoluteGates(t *testing.T) {
	base := baselineFile{After: map[string]benchBaseline{"BenchmarkKernel": {NsPerCycle: 3000}}}
	results := parse(t, benchOutput)
	if _, failed := gate(io.Discard, base, results, 0.2, 0); failed != 0 {
		t.Errorf("3200 ns/op against a 3000 baseline at +20%%: %d failures", failed)
	}
	if _, failed := gate(io.Discard, base, results, 0.05, 0); failed != 1 {
		t.Errorf("3200 ns/op against a 3000 baseline at +5%%: %d failures, want 1", failed)
	}
	base.After["BenchmarkKernel"] = benchBaseline{NsPerCycle: 3000, AllocsPerCycle: -1}
	if _, failed := gate(io.Discard, base, results, 0.2, 0); failed != 1 {
		t.Errorf("0 allocs/op against a limit of -1: %d failures, want 1", failed)
	}
}
