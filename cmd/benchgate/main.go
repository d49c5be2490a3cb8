// Command benchgate is the benchmark-regression gate for the cycle
// kernel: it parses `go test -bench` output, compares each gated
// benchmark against the checked-in baseline in BENCH_kernel.json and
// exits non-zero if ns/op regresses past the tolerance or allocs/op
// grows past the slack. Plain stdlib, so CI needs nothing but the Go
// toolchain:
//
//	go test -run '^$' -bench Kernel -benchmem . | go run ./cmd/benchgate
//	go run ./cmd/benchgate -baseline BENCH_kernel.json -tolerance 0.35 -input bench.txt
//
// ns/op gates are relative (timing is machine-dependent); allocs/op
// gates are absolute (allocation counts are deterministic), so the
// kernel's zero-alloc property cannot erode silently even on a noisy
// runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchBaseline is one benchmark's reference numbers from the "after"
// block of BENCH_kernel.json.
type benchBaseline struct {
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// speedupGate is a cross-benchmark speedup gate: the gated benchmark
// must deliver at least MinAggregateSpeedup over the sequential
// reference when the runner has 2+ processors to parallelise across.
// On a single processor parallel execution cannot beat sequential —
// the gate degrades to SingleProcFloor, a no-pathological-regression
// bound on the same ratio. The lockstep replica engine is gated this
// way (one op = one replica-cycle; overhead is lockstep sync plus the
// cache footprint of N replica stacks on one core).
type speedupGate struct {
	Benchmark           string  `json:"benchmark"`
	Reference           string  `json:"reference"`
	MinAggregateSpeedup float64 `json:"min_aggregate_speedup"`
	SingleProcFloor     float64 `json:"single_proc_floor"`
}

// baselineFile is the subset of BENCH_kernel.json the gate reads.
type baselineFile struct {
	After          map[string]benchBaseline `json:"after"`
	ReplicatedGate *speedupGate             `json:"replicated_gate"`
}

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	procs       int
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		baselinePath = flag.String("baseline", "BENCH_kernel.json", "baseline file (the 'after' block is the reference)")
		input        = flag.String("input", "-", "bench output to check ('-' = stdin)")
		tolerance    = flag.Float64("tolerance", 0.20, "allowed relative ns/op regression (0.20 = +20%)")
		allocSlack   = flag.Float64("alloc-slack", 0, "allowed absolute allocs/op growth over baseline")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 1
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fail(err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fail(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	if len(base.After) == 0 {
		return fail(fmt.Errorf("%s has no 'after' baselines", *baselinePath))
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	results, err := parseBench(r)
	if err != nil {
		return fail(err)
	}

	checked, failed := 0, 0
	for name, b := range base.After {
		samples, ok := results[name]
		if !ok {
			continue
		}
		checked++
		s := mean(samples)
		limit := b.NsPerCycle * (1 + *tolerance)
		status := "ok"
		if s.nsPerOp > limit {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-24s ns/op %9.0f  baseline %9.0f  limit %9.0f  (%+.1f%%)  %s\n",
			name, s.nsPerOp, b.NsPerCycle, limit, 100*(s.nsPerOp/b.NsPerCycle-1), status)
		if s.hasAllocs {
			allocLimit := b.AllocsPerCycle + *allocSlack
			status = "ok"
			if s.allocsPerOp > allocLimit {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%-24s allocs/op %6.1f  baseline %6.1f  limit %9.1f  %s\n",
				name, s.allocsPerOp, b.AllocsPerCycle, allocLimit, status)
		}
	}
	if g := base.ReplicatedGate; g != nil {
		repl, haveRepl := results[g.Benchmark]
		ref, haveRef := results[g.Reference]
		if haveRepl && haveRef {
			checked++
			r, s := mean(ref), mean(repl)
			// One replicated op is one replica-cycle, so the sequential
			// reference's ns/op over the replicated ns/op is the aggregate
			// cycles·replicas/sec speedup directly.
			speedup := r.nsPerOp / s.nsPerOp
			required := g.MinAggregateSpeedup
			kind := "aggregate speedup"
			if s.procs < 2 {
				// A single-core runner cannot parallelise the replicas; hold
				// the floor instead of the speedup target.
				required = g.SingleProcFloor
				kind = "single-proc floor"
			}
			status := "ok"
			if speedup < required {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%-24s %.2fx vs %s (procs=%d, %s >= %.2fx)  %s\n",
				g.Benchmark, speedup, g.Reference, s.procs, kind, required, status)
		}
	}
	if checked == 0 {
		return fail(fmt.Errorf("no gated benchmark appeared in the input — is the bench step wired correctly?"))
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d gate(s) failed\n", failed)
		return 1
	}
	fmt.Printf("benchgate: %d benchmark(s) within limits\n", checked)
	return 0
}

// parseBench extracts (ns/op, allocs/op) samples per benchmark from
// `go test -bench` output. The GOMAXPROCS suffix is stripped so
// BenchmarkKernel-4 keys as BenchmarkKernel; repeated runs (-count)
// accumulate as separate samples.
func parseBench(r io.Reader) (map[string][]sample, error) {
	results := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		var s sample
		if i := strings.LastIndex(name, "-"); i > 0 {
			// The suffix is the GOMAXPROCS the benchmark ran under; the
			// replicated gate scales its expectation by it.
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				s.procs = n
			}
			name = name[:i]
		}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				seen = true
			case "allocs/op":
				s.allocsPerOp = v
				s.hasAllocs = true
			}
		}
		if seen {
			results[name] = append(results[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// mean averages the samples of one benchmark; allocs are flagged
// present if any sample carried them, and procs is the highest
// GOMAXPROCS any sample ran under.
func mean(samples []sample) sample {
	var out sample
	for _, s := range samples {
		out.nsPerOp += s.nsPerOp
		out.allocsPerOp += s.allocsPerOp
		out.hasAllocs = out.hasAllocs || s.hasAllocs
		if s.procs > out.procs {
			out.procs = s.procs
		}
	}
	n := float64(len(samples))
	out.nsPerOp /= n
	out.allocsPerOp /= n
	return out
}
