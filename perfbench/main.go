// Command perfbench is the repository benchmark. It runs one workload
// for at least --seconds and prints the end-to-end metrics, or, with --trace 1,
// runs the traced ledger and prints the per-layer metrics. The last line
// of standard output is one JSON object,
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"name": {"value": 1.5, "unit": "ms"}}}
//
// and the lines before it are a readable report: the determinism
// digest, every metric with its sample count, and every failed check.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-fig9 --seed 1 --seconds 20 --trace 0
//
// Workloads: sweep-fig9, pearld-mix and pearld-seeds; "all" runs the
// three in turn. See perfbench/README.md for what each measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricDef is a metric the benchmark declares in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload: each workload measures them on its own operations.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pearl_cycles_per_s", "1/s"},
	{"cmesh_cycles_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"sim.event_phase_ns_per_cycle", "ns"},
	{"sim.pending_events_mean", "count"},
	{"traffic.tick_ns_per_cycle", "ns"},
	{"traffic.deliver_ns_per_packet", "ns"},
	{"traffic.injected_per_kcycle", "count"},
	{"traffic.outstanding_mean", "count"},
	{"core.tick_ns_per_cycle", "ns"},
	{"core.delivered_per_kcycle", "count"},
	{"core.in_flight_mean", "count"},
	{"core.turn_on_stalls_per_kcycle", "count"},
	{"controller.next_state_ns_per_call", "ns"},
	{"controller.calls_per_kcycle", "count"},
	{"controller.state_change_ratio", "ratio"},
	{"cmesh.tick_ns_per_cycle", "ns"},
	{"cmesh.delivered_per_kcycle", "count"},
	{"cmesh.in_flight_mean", "count"},
	{"experiments.run_overhead_ratio", "ratio"},
	{"experiments.lockstep_efficiency", "ratio"},
	{"server.http_ms_p50", "ms"},
	{"server.metrics_scrape_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.worker_utilization", "ratio"},
	{"server.batch_submit_ms", "ms"},
	{"server.replica_groups_per_point", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// hardStop bounds a run whose work floor is not met yet, so that a
// stalled program still ends the run well inside three minutes.
const hardStop = 140 * time.Second

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	scratch string // working directory inside the checkout
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(runConfig) (*outcome, error){
	"sweep-fig9":   runSweep,
	"pearld-mix":   runMix,
	"pearld-seeds": runSeeds,
}

var workloadOrder = []string{"sweep-fig9", "pearld-mix", "pearld-seeds"}

// measure is one metric value with the sample count it rests on.
type measure struct {
	name  string
	value float64
	unit  string
	n     int
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int64
	failures          []string // failed operations (first few kept)
	problems          []string // failed output checks
	digests           []string // "name=hex" determinism digests
	metrics           []measure
	report            []measure // shown in the report only
}

// opFailed counts a failed operation; nothing is retried.
func (o *outcome) opFailed(err error) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, err.Error())
	}
}

// problem records a failed output check, which makes the run incorrect.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) metric(name string, value float64, unit string, n int) {
	o.metrics = append(o.metrics, measure{name, value, unit, n})
}

func (o *outcome) note(name string, value float64, unit string, n int) {
	o.report = append(o.report, measure{name, value, unit, n})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: sweep-fig9, pearld-mix, pearld-seeds or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced ledger and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadOrder, ", "))
	}
	parent := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, scratch: scratch}
	if *trace == 1 {
		// The traced ledger covers every workload whichever is named.
		o, err := runTraced(rc)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		return emit(*workload, o, perLayer, false)
	}
	for _, name := range names {
		o, err := workloads[name](rc)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := emit(name, o, endToEnd, true); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// addPeakRSS reports the process's peak resident memory so far. Each
// workload reads it after a fixed amount of work.
func addPeakRSS(o *outcome) error {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fmt.Errorf("parsing %q: %w", line, err)
			}
			o.metric("peak_rss_mb", kb/1024, "MB", 1)
			return nil
		}
	}
	return errors.New("no VmHWM line in /proc/self/status")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the report and the result line. Every declared metric
// must be present, finite and, for end-to-end metrics, non-zero.
func emit(workload string, o *outcome, defs []metricDef, positive bool) error {
	got := make(map[string]measure, len(o.metrics))
	for _, m := range o.metrics {
		got[m.name] = m
	}
	res := jsonResult{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || (positive && m.value <= 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		res.Metrics[d.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Printf("workload %s: attempted %d, failed %d\n", workload, o.attempted, o.failed)
	for _, d := range o.digests {
		fmt.Printf("digest %s\n", d)
	}
	for _, m := range append(append([]measure(nil), o.metrics...), o.report...) {
		fmt.Printf("metric %-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, f := range o.failures {
		fmt.Printf("failed operation: %s\n", f)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
