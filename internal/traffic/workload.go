package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Service latencies in network cycles for the memory-side components that
// answer requests.
const (
	// L3HitCycles is the shared L3 lookup latency.
	L3HitCycles = 24
	// MemExtraCycles is the additional main-memory latency on an L3 miss.
	MemExtraCycles = 120
	// RemoteL2Cycles is a peer cluster's L2 snoop/service latency.
	RemoteL2Cycles = 12
)

// Target is the network under test: it accepts packets at their source
// router. Inject returns false when the router's input buffer cannot take
// the packet this cycle; the workload retries.
type Target interface {
	Inject(p *noc.Packet) bool
}

// generator drives one traffic class at one cluster router: a two-state
// Markov-modulated Poisson demand process in front of a bounded MSHR
// window.
type generator struct {
	router  int
	profile Profile
	// rng is embedded by value: the 32 generators of a workload live in
	// one contiguous array (see Workload.gens), so a replica's whole
	// traffic state walks the cache linearly instead of chasing per-
	// generator pointers.
	rng sim.RNG

	bursting    bool
	level       float64 // burst intensity in [0,1], ramping up/down
	pending     int     // demands waiting for an MSHR slot
	outstanding int     // requests in flight awaiting responses
	shed        uint64

	// expFor/expNegRate cache exp(-rate) for the Poisson sampler. The rate
	// only changes while a burst ramps, so in steady state the exponential
	// (one of the costliest calls in the cycle loop) is computed once, not
	// every cycle. expFor starts as NaN so the first cycle always fills
	// the cache.
	expFor     float64
	expNegRate float64
	// expTab is a direct-mapped cache of exp(-rate) behind the
	// single-entry cache above: a ramping burst walks the same ladder of
	// float rate values on every burst (each value recurs dozens of times
	// per million cycles), so most rate changes hit the table instead of
	// math.Exp. The slice aliases a table shared by every generator of
	// the workload (and, in replicated runs, by co-scheduled replicas of
	// the same pair): the memo is value-transparent — a slot is only
	// consumed when its stored rate matches exactly — so sharing changes
	// which lookups miss, never what any lookup returns.
	expTab []expEntry
	// rampStep and rateSpan precompute 1/RampCycles and
	// BurstRate-BaseRate; both are bit-identical to computing them inline
	// every cycle, just cheaper.
	rampStep float64
	rateSpan float64
}

// expEntry is one slot of the direct-mapped exp(-rate) cache. The zero
// value is safe: a stored rate of 0 can never be read back wrongly because
// PoissonExp returns before consuming exp(-mean) when mean <= 0.
type expEntry struct {
	rate float64
	exp  float64
}

// expTabBits sizes the shared exp cache (2^11 = 2048 slots, 32 KiB).
const expTabBits = 11

// ExpTable is a shareable exp(-rate) memo. One table serves all 32
// generators of a workload (the burst-rate ladders of a pair's two
// profiles fit 2048 slots with room to spare), replacing the former
// per-generator tables — 32 KiB per workload instead of 1 MiB. A
// lockstep replica set goes further and hands the same table to every
// replica a worker lane steps (same goroutine, so unsynchronised
// access is safe): the first replica warms the ladder, the rest hit.
// Sharing is bit-transparent because a slot is re-verified against the
// exact rate before its cached exponential is consumed.
type ExpTable struct {
	slots []expEntry
}

// NewExpTable allocates an empty shared memo.
func NewExpTable() *ExpTable {
	return &ExpTable{slots: make([]expEntry, 1<<expTabBits)}
}

// tickDemand advances the burst chain and returns this cycle's new
// demands. Bursts ramp to full intensity over RampCycles (kernels
// announce themselves through partial activity) and collapse twice as
// fast when they end.
func (g *generator) tickDemand() int {
	if g.bursting {
		if g.rng.Bernoulli(g.profile.BurstExit) {
			g.bursting = false
		}
	} else if g.rng.Bernoulli(g.profile.BurstEntry) {
		g.bursting = true
	}
	if g.profile.RampCycles == 0 {
		if g.bursting {
			g.level = 1
		} else {
			g.level = 0
		}
	} else if g.bursting {
		g.level += g.rampStep
		if g.level > 1 {
			g.level = 1
		}
	} else if g.level > 0 {
		g.level -= 2 * g.rampStep
		if g.level < 0 {
			g.level = 0
		}
	}
	rate := g.profile.BaseRate + g.level*g.rateSpan
	if rate != g.expFor {
		g.expFor = rate
		e := &g.expTab[(math.Float64bits(rate)*0x9E3779B97F4A7C15)>>(64-expTabBits)]
		if e.rate != rate {
			e.rate = rate
			e.exp = math.Exp(-rate)
		}
		g.expNegRate = e.exp
	}
	return g.rng.PoissonExp(rate, g.expNegRate)
}

// Workload wires a benchmark pair onto a network target: it owns the 32
// per-router per-class generators, schedules memory-side responses through
// the engine, releases MSHR credits on response delivery, and tallies the
// Figure 4 injection breakdown.
type Workload struct {
	engine *sim.Engine
	target Target
	pair   Pair

	// gens holds the generators by value: one contiguous block of
	// demand-process state (burst chains, MSHR windows, embedded RNG
	// streams) per workload, which is what lets a replicated run lay N
	// seeds' traffic state out back to back.
	gens   [config.NumClusterRouters][noc.NumClasses]generator
	rng    *sim.RNG
	nextID uint64

	// pool recycles packet storage: every workload packet terminates in
	// OnDeliver (requests after their response is scheduled, replies after
	// retiring, writebacks immediately), so steady-state traffic allocates
	// no packets at all.
	pool noc.Pool

	// respQ holds service-complete responses waiting for buffer space at
	// their source router, drained FIFO each cycle. Index is the
	// response's source router (clusters and L3).
	respQ [config.NumRouters][noc.NumClasses][]*noc.Packet
	// respMask has bit r*2+class set when respQ[r][class] is non-empty,
	// so the drain pass touches only occupied queues instead of scanning
	// all 34 (NumRouters x NumClasses fits a uint64).
	respMask uint64

	measuring bool
	// Injected counts packets accepted by the network during
	// measurement (Figure 4 numerator).
	Injected stats.ClassCounts
	// Retired counts requests whose response came back.
	Retired uint64
	// Shed counts demands dropped because the pending queue was full
	// (core stall).
	Shed uint64
}

// NewWorkload builds the generator set for a benchmark pair. The caller
// must register the returned workload with the engine before the network
// so demand is injected ahead of router arbitration each cycle.
func NewWorkload(engine *sim.Engine, target Target, pair Pair, seed uint64) (*Workload, error) {
	return NewWorkloadWithExpTable(engine, target, pair, seed, nil)
}

// NewWorkloadWithExpTable is NewWorkload with an explicit shared
// exp(-rate) memo; nil allocates a fresh one. The table must only be
// shared between workloads that tick on the same goroutine (lockstep
// replicas on one worker lane) — it is a plain memo with no
// synchronisation. Sharing never changes results, only memo hit rates.
func NewWorkloadWithExpTable(engine *sim.Engine, target Target, pair Pair, seed uint64, tab *ExpTable) (*Workload, error) {
	if err := pair.CPU.Validate(); err != nil {
		return nil, err
	}
	if err := pair.GPU.Validate(); err != nil {
		return nil, err
	}
	if pair.CPU.Class != noc.ClassCPU || pair.GPU.Class != noc.ClassGPU {
		return nil, fmt.Errorf("traffic: pair %s has mismatched classes", pair.Name())
	}
	if tab == nil {
		tab = NewExpTable()
	}
	w := &Workload{engine: engine, target: target, pair: pair, rng: sim.NewRNG(seed)}
	for r := 0; r < config.NumClusterRouters; r++ {
		w.gens[r][noc.ClassCPU].init(r, pair.CPU, w.rng.Fork(), tab)
		w.gens[r][noc.ClassGPU].init(r, pair.GPU, w.rng.Fork(), tab)
	}
	return w, nil
}

// init fills one in-place generator slot. rng's state is copied in by
// value: the fork happens in the same order NewWorkload always forked,
// so the draw sequences are unchanged.
func (g *generator) init(router int, profile Profile, rng *sim.RNG, tab *ExpTable) {
	g.router = router
	g.profile = profile
	g.rng = *rng
	g.expFor = math.NaN()
	g.expTab = tab.slots
	if profile.RampCycles != 0 {
		g.rampStep = 1 / float64(profile.RampCycles)
	}
	g.rateSpan = profile.BurstRate - profile.BaseRate
}

// StartMeasurement begins counting injections (end of warmup).
func (w *Workload) StartMeasurement() { w.measuring = true }

// StopMeasurement freezes the counts.
func (w *Workload) StopMeasurement() { w.measuring = false }

// Tick first drains queued responses, then generates demand and injects
// as many packets as credits and buffer space allow.
func (w *Workload) Tick(cycle int64) {
	w.drainResponses(cycle)
	for r := 0; r < config.NumClusterRouters; r++ {
		for class := 0; class < noc.NumClasses; class++ {
			g := &w.gens[r][class]
			demand := g.tickDemand()
			g.pending += demand
			if over := g.pending - g.profile.MaxPending; over > 0 {
				g.pending = g.profile.MaxPending
				g.shed += uint64(over)
				if w.measuring {
					w.Shed += uint64(over)
				}
			}
			w.drain(g, cycle)
		}
	}
}

// drain issues pending demands until an MSHR or buffer limit stops it.
func (w *Workload) drain(g *generator, cycle int64) {
	for g.pending > 0 {
		isWriteback := g.rng.Bernoulli(g.profile.WriteFraction)
		if !isWriteback && g.outstanding >= g.profile.MaxOutstanding {
			return
		}
		p := w.buildPacket(g, isWriteback, cycle)
		if !w.target.Inject(p) {
			w.pool.Put(p) // buffer full; rebuild (fresh draws) next cycle
			return
		}
		g.pending--
		if !isWriteback {
			g.outstanding++
		}
		if w.measuring {
			w.Injected.Add(int(p.Class), p.SizeBits)
		}
	}
}

// buildPacket assembles a request or writeback from the generator's
// profile.
func (w *Workload) buildPacket(g *generator, writeback bool, cycle int64) *noc.Packet {
	w.nextID++
	dst := config.L3RouterID
	if !g.rng.Bernoulli(g.profile.L3Fraction) {
		dst = g.rng.Intn(config.NumClusterRouters - 1)
		if dst >= g.router {
			dst++ // skip self
		}
	}
	class := g.profile.Class
	if writeback {
		return w.pool.GetResponse(w.nextID, g.router, dst, class, writebackSource(class), cycle)
	}
	return w.pool.GetRequest(w.nextID, g.router, dst, class, w.requestSource(g), cycle)
}

// requestSource picks the cache level labelling a request, matching the
// Table III feature taxonomy.
func (w *Workload) requestSource(g *generator) noc.Source {
	u := g.rng.Float64()
	if g.profile.Class == noc.ClassCPU {
		switch {
		case u < 0.20:
			return noc.SrcCPUL1I
		case u < 0.70:
			return noc.SrcCPUL1D
		default:
			return noc.SrcCPUL2Down
		}
	}
	if u < 0.60 {
		return noc.SrcGPUL1
	}
	return noc.SrcGPUL2Down
}

// writebackSource labels dirty-eviction traffic as L2-down data.
func writebackSource(class noc.Class) noc.Source {
	if class == noc.ClassCPU {
		return noc.SrcCPUL2Down
	}
	return noc.SrcGPUL2Down
}

// OnDeliver must be called by the network when a packet reaches its
// destination router. It schedules the memory-side response for requests
// and releases the MSHR credit when a response returns home. Every
// delivered packet terminates here, so its storage is recycled into the
// pool — nothing may retain a delivered packet past this call.
func (w *Workload) OnDeliver(p *noc.Packet, cycle int64) {
	switch {
	case p.Kind == noc.KindRequest && p.WantsResponse:
		w.scheduleResponse(p, cycle)
	case p.Kind == noc.KindResponse && p.Dst < config.NumClusterRouters:
		// A response arriving home retires the original request, unless
		// it is writeback traffic terminating at a peer/L3 (handled by
		// the Dst check plus origin marker below).
		if g := w.originGenerator(p); g != nil {
			if g.outstanding > 0 {
				g.outstanding--
			}
			w.Retired++
		}
	}
	w.pool.Put(p)
}

// originGenerator maps a returning response to the generator that issued
// the request. Responses built by scheduleResponse carry the requester's
// class and terminate at the requester's router; writebacks never match
// because their Reply marker is false.
func (w *Workload) originGenerator(p *noc.Packet) *generator {
	if !p.Reply {
		return nil
	}
	return &w.gens[p.Dst][p.Class]
}

// scheduleResponse models the destination's service time, then injects the
// response into the destination router's input buffers (retrying while the
// buffer is full).
func (w *Workload) scheduleResponse(req *noc.Packet, cycle int64) {
	latency := int64(RemoteL2Cycles)
	src := noc.SrcCPUL2Up
	if req.Class == noc.ClassGPU {
		src = noc.SrcGPUL2Up
	}
	if req.Dst == config.L3RouterID {
		latency = L3HitCycles
		memFrac := w.pair.CPU.MemFraction
		if req.Class == noc.ClassGPU {
			memFrac = w.pair.GPU.MemFraction
		}
		if w.rng.Bernoulli(memFrac) {
			latency += MemExtraCycles
		}
		src = noc.SrcL3
	}
	w.nextID++
	resp := w.pool.GetResponse(w.nextID, req.Dst, req.Src, req.Class, src, cycle+latency)
	resp.Reply = true
	// Typed payload event instead of a closure: the response pointer rides
	// in the event itself, so scheduling the service completion allocates
	// nothing.
	w.engine.SchedulePayload(latency, w, resp, 0)
}

// HandleEvent implements sim.Handler for service-completion events: ptr is
// the finished response, released into its source router's pending queue.
func (w *Workload) HandleEvent(cycle int64, ptr any, _ int64) {
	resp := ptr.(*noc.Packet)
	resp.InjectCycle = cycle
	w.respQ[resp.Src][resp.Class] = append(w.respQ[resp.Src][resp.Class], resp)
	w.respMask |= 1 << (uint(resp.Src)*noc.NumClasses + uint(resp.Class))
}

// drainResponses injects queued responses FIFO, stopping per queue at the
// first buffer-full rejection. Ascending bit order visits (router, class)
// pairs exactly as the full nested scan would.
func (w *Workload) drainResponses(int64) {
	for mask := w.respMask; mask != 0; {
		b := uint(bits.TrailingZeros64(mask))
		mask &^= 1 << b
		r, class := b/noc.NumClasses, b%noc.NumClasses
		q := w.respQ[r][class]
		n := 0
		for _, p := range q {
			if !w.target.Inject(p) {
				break
			}
			n++
			if w.measuring {
				w.Injected.Add(int(p.Class), p.SizeBits)
			}
		}
		if n > 0 {
			remaining := copy(q, q[n:])
			for i := remaining; i < len(q); i++ {
				q[i] = nil
			}
			w.respQ[r][class] = q[:remaining]
			if remaining == 0 {
				w.respMask &^= 1 << b
			}
		}
	}
}

// Outstanding returns total in-flight requests across all generators
// (drain checks in tests).
func (w *Workload) Outstanding() int {
	total := 0
	for r := range w.gens {
		for c := range w.gens[r] {
			total += w.gens[r][c].outstanding
		}
	}
	return total
}

// Pending returns total queued-but-unissued demands.
func (w *Workload) Pending() int {
	total := 0
	for r := range w.gens {
		for c := range w.gens[r] {
			total += w.gens[r][c].pending
		}
	}
	return total
}
