package main

import "time"

// layer is a kernel layer the traced stack times.
type layer int

const (
	// layerEvent is the engine's event phase: a step's time minus the
	// time spent in component ticks.
	layerEvent layer = iota
	layerTrafficTick
	layerDeliver // the workload's delivery handler, nested in a network tick
	layerCore
	layerCMESH
	layerController // nested in a PEARL network tick
	numLayers
)

// spanStack turns properly nested spans into per-layer totals. A span's
// self time is its duration minus the time its direct children cover,
// so the self times of one root span's tree add up to its duration.
type spanStack struct {
	now   func() int64 // monotonic nanoseconds
	stack [8]frame
	depth int
	self  [numLayers]int64
	total [numLayers]int64
	count [numLayers]int64
}

type frame struct {
	l            layer
	start, child int64
}

func newSpanStack() spanStack {
	base := time.Now()
	return spanStack{now: func() int64 { return int64(time.Since(base)) }}
}

func (s *spanStack) begin(l layer) { s.beginAt(l, s.now()) }

func (s *spanStack) beginAt(l layer, t int64) {
	s.stack[s.depth] = frame{l: l, start: t}
	s.depth++
}

func (s *spanStack) end() { s.endAt(s.now()) }

func (s *spanStack) endAt(t int64) {
	s.depth--
	f := s.stack[s.depth]
	d := t - f.start
	s.self[f.l] += d - f.child
	s.total[f.l] += d
	s.count[f.l]++
	if s.depth > 0 {
		s.stack[s.depth-1].child += d
	}
}

// selfSum is the self time of every layer together.
func (s *spanStack) selfSum() int64 {
	var sum int64
	for _, v := range s.self {
		sum += v
	}
	return sum
}

// Backends the ledger keeps apart.
const (
	backendPEARL = iota
	backendCMESH
	numBackends
)

// ledger accumulates the kernel layers' spans and counters over every
// traced stack it is attached to. Every cycle is timed: the clock reads
// cost about a fifth of a cycle, which trace.overhead_ratio reports.
type ledger struct {
	spans spanStack

	cycles         [numBackends]int64
	inFlightSum    [numBackends]int64
	delivered      [numBackends]int64
	pendingSum     int64
	outstandingSum int64
	injected       int64
	stalls         int64
	ctrlCalls      int64
	ctrlChanges    int64
	ctrlNs         int64
}

func newLedger() *ledger { return &ledger{spans: newSpanStack()} }

// step executes and times one cycle of s, then samples its gauges.
func (l *ledger) step(s *stack) {
	b := s.backend
	l.spans.begin(layerEvent)
	s.engine.Step()
	l.spans.end()
	l.cycles[b]++
	l.inFlightSum[b] += int64(s.net.InFlight())
	l.outstandingSum += int64(s.work.Outstanding())
	l.pendingSum += int64(s.engine.PendingEvents())
}

func perK(n, cycles int64) float64 { return 1000 * float64(n) / float64(cycles) }

func ratio(a, b int64) float64 { return float64(a) / float64(b) }

// layerMetrics reduces the ledger to the kernel's per-layer metrics.
func (l *ledger) layerMetrics() []measure {
	cycles := l.cycles[backendPEARL] + l.cycles[backendCMESH]
	p, c := backendPEARL, backendCMESH
	n := func(x int64) int { return int(x) }
	return []measure{
		{"sim.event_phase_ns_per_cycle", ratio(l.spans.self[layerEvent], cycles), "ns", n(cycles)},
		{"sim.pending_events_mean", ratio(l.pendingSum, cycles), "count", n(cycles)},
		{"traffic.tick_ns_per_cycle", ratio(l.spans.self[layerTrafficTick], cycles), "ns", n(cycles)},
		{"traffic.deliver_ns_per_packet", ratio(l.spans.total[layerDeliver], l.spans.count[layerDeliver]), "ns", n(l.spans.count[layerDeliver])},
		{"traffic.injected_per_kcycle", perK(l.injected, cycles), "count", n(cycles)},
		{"traffic.outstanding_mean", ratio(l.outstandingSum, cycles), "count", n(cycles)},
		{"core.tick_ns_per_cycle", ratio(l.spans.self[layerCore], l.cycles[p]), "ns", n(l.cycles[p])},
		{"core.delivered_per_kcycle", perK(l.delivered[p], l.cycles[p]), "count", n(l.cycles[p])},
		{"core.in_flight_mean", ratio(l.inFlightSum[p], l.cycles[p]), "count", n(l.cycles[p])},
		{"core.turn_on_stalls_per_kcycle", perK(l.stalls, l.cycles[p]), "count", n(l.cycles[p])},
		{"controller.next_state_ns_per_call", ratio(l.ctrlNs, l.ctrlCalls), "ns", n(l.ctrlCalls)},
		{"controller.calls_per_kcycle", perK(l.ctrlCalls, l.cycles[p]), "count", n(l.cycles[p])},
		{"controller.state_change_ratio", ratio(l.ctrlChanges, l.ctrlCalls), "ratio", n(l.ctrlCalls)},
		{"cmesh.tick_ns_per_cycle", ratio(l.spans.self[layerCMESH], l.cycles[c]), "ns", n(l.cycles[c])},
		{"cmesh.delivered_per_kcycle", perK(l.delivered[c], l.cycles[c]), "count", n(l.cycles[c])},
		{"cmesh.in_flight_mean", ratio(l.inFlightSum[c], l.cycles[c]), "count", n(l.cycles[c])},
	}
}

// selfNsPerCycle is the self time of all kernel layers per cycle: by
// construction the traced stack's mean step time.
func (l *ledger) selfNsPerCycle() float64 {
	return ratio(l.spans.selfSum(), l.cycles[backendPEARL]+l.cycles[backendCMESH])
}
