// Package cmesh implements the paper's electrical baseline: a 4x4
// concentrated mesh (CMESH) with the same cluster organisation as PEARL —
// each router concentrates 2 CPU cores, 4 GPU CUs and their L1/L2 caches
// — dimension-order (XY) wormhole routing, 4 virtual channels of 4
// 128-bit flit slots per input port, credit-based flow control, and
// 128-bit links sized so the mesh bisection matches the 64-wavelength
// photonic crossbar (§IV: "CMESH is designed to have the same bisection
// bandwidth as the PEARL architectures").
//
// The shared L3 (with its two memory controllers) attaches at the two
// central routers; traffic addressed to the PEARL L3 router id is routed
// to the nearer attachment point, so the same workloads drive both
// networks unchanged.
package cmesh

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mesh geometry and router microarchitecture constants.
const (
	// Width is the mesh side (4x4 concentrated mesh).
	Width = config.GridWidth
	// NumNodes is the mesh router count.
	NumNodes = Width * Width
	// VCsPerPort is the virtual channel count per input port (§IV).
	VCsPerPort = 4
	// SlotsPerVC is the flit depth of each VC buffer (§IV).
	SlotsPerVC = 4
	// FlitBits is the link phit width; one flit crosses a link per
	// cycle, giving a bisection of 4 links x 128 bits = 512 bits/cycle
	// per direction, equal to the photonic crossbar's 8 cluster
	// channels x 64 bits/cycle.
	FlitBits = config.FlitBits
	// RouterPipelineCycles is the electrical router's per-hop pipeline
	// depth (buffer write, route compute/VC allocation, switch
	// allocation, switch traversal) beyond link traversal.
	RouterPipelineCycles = 2
)

// L3 attachment points: the banked shared L3 and its memory controllers
// attach at the four central routers of the mesh, mirroring the photonic
// L3 router's multi-channel connectivity so both networks offer the L3
// comparable injection/ejection bandwidth.
var l3Attach = [4]int{5, 6, 9, 10}

// port indices.
const (
	portNorth = iota
	portSouth
	portEast
	portWest
	numNeighborPorts
)

// opposite maps each neighbor port to the port it enters on at the far
// router.
var opposite = [numNeighborPorts]int{portSouth, portNorth, portWest, portEast}

// A router's inputs are indexed neighbor VCs first ([port][vc] order),
// then one injection queue per class from localInput. Arbitration masks
// index inputs by bit, so numInputs must fit a uint32.
const (
	localInput = numNeighborPorts * VCsPerPort
	numInputs  = localInput + noc.NumClasses
)

// flit is one 128-bit slice of a packet in flight.
type flit struct {
	pkt    *noc.Packet
	isHead bool
	isTail bool
}

// timedFlit is a flit with its link-arrival cycle.
type timedFlit struct {
	f       flit
	readyAt int64
}

// flitRing is a fixed-capacity circular flit FIFO. Capacity is set once
// at construction to the VC's flow-control bound (credits for neighbor
// VCs, the class buffer size for injection queues), so steady-state
// enqueue/dequeue reuses the backing array and never allocates. Pushing
// past capacity is a flow-control bug and panics rather than growing.
type flitRing struct {
	buf  []timedFlit
	head int
	n    int
}

func newFlitRing(capacity int) flitRing {
	return flitRing{buf: make([]timedFlit, capacity)}
}

func (q *flitRing) len() int { return q.n }

func (q *flitRing) push(tf timedFlit) {
	if q.n == len(q.buf) {
		panic("cmesh: VC buffer overflow (flow control violated)")
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = tf
	q.n++
}

// front returns the head flit in place; callers must check len first.
func (q *flitRing) front() *timedFlit { return &q.buf[q.head] }

func (q *flitRing) pop() {
	q.buf[q.head] = timedFlit{} // release the packet pointer
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// inVC is one input virtual channel: a bounded flit FIFO plus wormhole
// routing state for the packet currently occupying it.
type inVC struct {
	q flitRing

	// routed reports whether the head packet has passed route compute.
	routed  bool
	outPort int // destination output port (or portLocal)
	outVC   int // allocated downstream VC (neighbor ports only)
	hasVC   bool
}

// portLocal is a pseudo output port index for ejection.
const portLocal = numNeighborPorts

// outVCState is sender-side bookkeeping for one downstream VC.
type outVCState struct {
	owner   *noc.Packet // packet holding the VC until its tail passes
	credits int         // free slots in the downstream buffer
}

// router is one CMESH node.
type router struct {
	id   int
	x, y int

	// in holds neighbor input VCs: [port][vc].
	in [numNeighborPorts][VCsPerPort]inVC
	// local holds the two class injection queues, treated as two extra
	// input VCs whose capacity matches the PEARL core buffers.
	local [noc.NumClasses]inVC
	// localSlotsUsed tracks flit occupancy of each class queue.
	localSlotsUsed [noc.NumClasses]int

	// out tracks downstream VC ownership and credits: [port][vc].
	out [numNeighborPorts][VCsPerPort]outVCState

	// rr is each output port's round-robin pointer: the input index
	// arbitration starts from.
	rr [numNeighborPorts + 1]int

	// outBusyUntil serialises narrow links: an output port is busy for
	// linkCyclesPerFlit cycles per flit.
	outBusyUntil [numNeighborPorts + 1]int64

	// inputs is the fixed input-VC list, in arbitration index order.
	inputs [numInputs]inputRef

	// occ has bit i set while input i holds a flit.
	occ uint32

	// nb is the router across each neighbor port, nil at a mesh edge.
	nb [numNeighborPorts]*router
}

// Network is the electrical CMESH under the same Target interface as the
// photonic network.
type Network struct {
	engine  *sim.Engine
	cfg     config.Config
	routers [NumNodes]*router

	acct      *power.Account
	metrics   *stats.Network
	onDeliver func(p *noc.Packet, cycle int64)
	measuring bool

	// linkCyclesPerFlit scales link bandwidth down for the Figure 5
	// sweep ("we reduce the bandwidth proportionally", §IV.C): 1 matches
	// the 64-wavelength photonic bisection, 2 halves it, 4 quarters it.
	linkCyclesPerFlit int64

	// partialEjected counts packets whose head has reached the local
	// port but whose tail has not, for drain checks. The per-packet
	// flit count itself rides on Packet.EjectedFlits, so ejection does
	// no map work.
	partialEjected int
}

// New builds the mesh. Only the buffer-size fields of the configuration
// are used; bandwidth and power policies do not apply to the electrical
// baseline.
func New(engine *sim.Engine, cfg config.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		engine:            engine,
		cfg:               cfg,
		metrics:           stats.NewNetwork(),
		linkCyclesPerFlit: 1,
	}
	for i := range n.routers {
		r := &router{id: i, x: i % Width, y: i / Width}
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				r.out[p][v].credits = SlotsPerVC
				r.in[p][v].q = newFlitRing(SlotsPerVC)
			}
		}
		for c := 0; c < noc.NumClasses; c++ {
			slots := cfg.CPUBufferSlots
			if noc.Class(c) == noc.ClassGPU {
				slots = cfg.GPUBufferSlots
			}
			r.local[c].q = newFlitRing(slots)
		}
		n.routers[i] = r
	}
	for _, r := range n.routers {
		for p, d := range [numNeighborPorts][2]int{portNorth: {0, -1}, portSouth: {0, 1}, portEast: {1, 0}, portWest: {-1, 0}} {
			if x, y := r.x+d[0], r.y+d[1]; x >= 0 && x < Width && y >= 0 && y < Width {
				r.nb[p] = n.routers[y*Width+x]
			}
		}
		for p := range r.in {
			for v := range r.in[p] {
				ref := &r.inputs[p*VCsPerPort+v]
				ref.vc = &r.in[p][v]
				if up := r.nb[p]; up != nil {
					ref.upstream = &up.out[opposite[p]][v]
				}
			}
		}
		for c := range r.local {
			r.inputs[localInput+c] = inputRef{vc: &r.local[c], local: true, class: noc.Class(c)}
		}
	}
	return n, nil
}

// Metrics returns the measurement accumulator.
func (n *Network) Metrics() *stats.Network { return n.metrics }

// SetLinkScale narrows every link so a flit occupies it for k cycles,
// scaling the bisection bandwidth by 1/k for the Figure 5 comparison
// against bandwidth-constrained photonic configurations.
func (n *Network) SetLinkScale(k int) {
	if k < 1 {
		panic("cmesh: link scale below 1")
	}
	n.linkCyclesPerFlit = int64(k)
}

// SetAccount attaches the energy accumulator.
func (n *Network) SetAccount(a *power.Account) { n.acct = a }

// SetDeliveryHandler installs the workload's delivery callback.
func (n *Network) SetDeliveryHandler(h func(p *noc.Packet, cycle int64)) { n.onDeliver = h }

// StartMeasurement begins recording statistics.
func (n *Network) StartMeasurement() { n.measuring = true }

// StopMeasurement freezes statistics.
func (n *Network) StopMeasurement(measuredCycles int64) {
	n.measuring = false
	n.metrics.MeasuredCycles = measuredCycles
}

// nodeFor maps a crossbar router id (0-15 clusters, 16 = L3) onto a mesh
// node; L3 traffic lands on the attachment point nearest to other.
func nodeFor(id, other int) int {
	if id != config.L3RouterID {
		return id
	}
	ref := other
	if ref == config.L3RouterID {
		ref = l3Attach[0]
	}
	best, bestDist := l3Attach[0], 1<<30
	for _, a := range l3Attach {
		d := hopDistance(a, ref)
		if d < bestDist {
			best, bestDist = a, d
		}
	}
	return best
}

func hopDistance(a, b int) int {
	ax, ay := a%Width, a/Width
	bx, by := b%Width, b/Width
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Inject enqueues a packet at its source node's class queue. The queue
// capacity matches the PEARL class buffers so both networks see identical
// injection backpressure.
func (n *Network) Inject(p *noc.Packet) bool {
	if p.Src < 0 || p.Src > config.L3RouterID || p.Dst < 0 || p.Dst > config.L3RouterID || p.Src == p.Dst {
		panic(fmt.Sprintf("cmesh: bad endpoints %d->%d", p.Src, p.Dst))
	}
	src := nodeFor(p.Src, p.Dst)
	r := n.routers[src]
	capSlots := n.cfg.CPUBufferSlots
	if p.Class == noc.ClassGPU {
		capSlots = n.cfg.GPUBufferSlots
	}
	flits := p.Flits(FlitBits)
	if r.localSlotsUsed[p.Class]+flits > capSlots {
		return false
	}
	r.localSlotsUsed[p.Class] += flits
	now := n.engine.Cycle()
	p.EnqueueCycle = now
	vc := &r.local[p.Class]
	r.occ |= 1 << (localInput + int(p.Class))
	for i := 0; i < flits; i++ {
		vc.q.push(timedFlit{
			f:       flit{pkt: p, isHead: i == 0, isTail: i == flits-1},
			readyAt: now,
		})
	}
	return true
}

// Tick advances every router: route compute + VC allocation + switch
// arbitration, then one flit per output port per router.
func (n *Network) Tick(cycle int64) {
	for _, r := range n.routers {
		n.tickRouter(r, cycle)
	}
	if n.acct != nil {
		n.acct.AddElectricalLeakage(NumNodes)
		n.acct.AddCycle()
	}
}

// inputRef identifies one input VC of a router (neighbor or local).
type inputRef struct {
	vc    *inVC
	local bool
	class noc.Class // for local queues, to release slot accounting
	// upstream is the sender's credit state for a neighbor VC (nil for
	// local queues and at mesh edges, which never receive flits).
	upstream *outVCState
}

// tickRouter runs route compute, VC allocation and switch arbitration,
// forwarding at most one flit per output port.
//
// One pass over the occupied inputs (the set bits of r.occ), in index
// order, routes and allocates every ready head exactly as a separate
// RC/VA stage over all inputs would, and sets bit i of cand[out] when
// input i may send through out this cycle: a ready, routed head bound
// for out holding (for a neighbor port) a downstream VC with credit.
// Each free port then grants the first requester at or after its
// round-robin pointer. The masks stay exact while ports forward one
// after another, because a forward on port A cannot change any input's
// eligibility for a later port B of the same router:
//   - a popped non-tail flit is followed by a flit bound for A again;
//   - a popped tail clears routed, and RC only runs in the pass;
//   - a forward changes only r.out[A] credits and the neighbor's state;
//   - flits arriving this cycle carry readyAt > cycle.
func (n *Network) tickRouter(r *router, cycle int64) {
	var cand [numNeighborPorts + 1]uint32
	for occ := r.occ; occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros32(occ)
		vc := r.inputs[i].vc
		head := vc.q.front()
		if head.readyAt > cycle {
			continue
		}
		if head.f.isHead && !vc.routed {
			vc.outPort = n.route(r, head.f.pkt)
			vc.routed = true
			vc.hasVC = false
		}
		if !vc.routed {
			continue
		}
		out := vc.outPort
		if out != portLocal {
			if !vc.hasVC && !allocateVC(&r.out[out], vc, head.f.pkt) {
				continue
			}
			if r.out[out][vc.outVC].credits <= 0 {
				continue
			}
		}
		cand[out] |= 1 << i
	}
	for out, m := range cand {
		if m == 0 || cycle < r.outBusyUntil[out] {
			continue // no requester, or a narrow link still serialising
		}
		start := r.rr[out]
		rot := (m>>start | m<<(numInputs-start)) & (1<<numInputs - 1)
		i := start + bits.TrailingZeros32(rot)
		if i >= numInputs {
			i -= numInputs
		}
		n.forward(r, i, cycle)
		if i++; i == numInputs {
			i = 0
		}
		r.rr[out] = i
	}
}

// allocateVC claims the first free downstream VC with credit on an output
// port for the packet at the head of vc.
func allocateVC(port *[VCsPerPort]outVCState, vc *inVC, p *noc.Packet) bool {
	for v := range port {
		if st := &port[v]; st.owner == nil && st.credits > 0 {
			st.owner = p
			vc.outVC = v
			vc.hasVC = true
			return true
		}
	}
	return false
}

// route computes the XY output port for a packet at router r.
func (n *Network) route(r *router, p *noc.Packet) int {
	dst := nodeFor(p.Dst, p.Src)
	if dst == r.id {
		return portLocal
	}
	dx, dy := dst%Width, dst/Width
	switch {
	case dx > r.x:
		return portEast
	case dx < r.x:
		return portWest
	case dy > r.y:
		return portSouth
	default:
		return portNorth
	}
}

// forward moves the head flit of the input VC through the crossbar.
func (n *Network) forward(r *router, i int, cycle int64) {
	ref := &r.inputs[i]
	vc := ref.vc
	f := vc.q.front().f
	vc.q.pop()
	if vc.q.n == 0 {
		r.occ &^= 1 << i
	}
	if ref.local {
		r.localSlotsUsed[ref.class]--
	} else {
		// Popping a neighbor VC frees a slot the upstream sender counts
		// as a credit.
		ref.upstream.credits++
		if ref.upstream.credits > SlotsPerVC {
			panic("cmesh: credit overflow")
		}
	}
	if n.acct != nil {
		n.acct.AddElectricalHop(FlitBits, vc.outPort != portLocal)
	}
	r.outBusyUntil[vc.outPort] = cycle + n.linkCyclesPerFlit
	if vc.outPort == portLocal {
		n.eject(f, cycle)
	} else {
		st := &r.out[vc.outPort][vc.outVC]
		st.credits--
		down, inPort := r.nb[vc.outPort], opposite[vc.outPort]
		down.occ |= 1 << (inPort*VCsPerPort + vc.outVC)
		down.in[inPort][vc.outVC].q.push(timedFlit{f: f, readyAt: cycle + n.linkCyclesPerFlit + RouterPipelineCycles})
		if f.isHead {
			f.pkt.Hops++
		}
		if f.isTail {
			st.owner = nil
		}
	}
	if f.isTail {
		vc.routed = false
		vc.hasVC = false
	}
}

// eject accumulates flits at the local port and delivers the packet when
// its tail arrives. The reassembly counter lives on the packet itself
// (zeroed by the pool), so this path is allocation- and map-free.
func (n *Network) eject(f flit, cycle int64) {
	p := f.pkt
	p.EjectedFlits++
	if !f.isTail {
		if p.EjectedFlits == 1 {
			n.partialEjected++
		}
		return
	}
	if p.EjectedFlits != p.Flits(FlitBits) {
		panic(fmt.Sprintf("cmesh: packet %d ejected %d of %d flits", p.ID, p.EjectedFlits, p.Flits(FlitBits)))
	}
	if p.EjectedFlits > 1 {
		n.partialEjected--
	}
	p.EjectedFlits = 0
	p.ArriveCycle = cycle
	if n.measuring {
		n.metrics.Delivered.Add(int(p.Class), p.SizeBits)
		lat := float64(cycle - p.InjectCycle)
		n.metrics.Latency.Add(lat)
		if p.Class == noc.ClassCPU {
			n.metrics.CPULatency.Add(lat)
		} else {
			n.metrics.GPULatency.Add(lat)
		}
	}
	if n.acct != nil {
		n.acct.AddDeliveredBits(p.SizeBits)
	}
	if n.onDeliver != nil {
		n.onDeliver(p, cycle)
	}
}

// InFlight reports flits buffered anywhere in the mesh plus partially
// ejected packets, for drain checks.
func (n *Network) InFlight() int {
	total := 0
	for _, r := range n.routers {
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				total += r.in[p][v].q.len()
			}
		}
		for c := 0; c < noc.NumClasses; c++ {
			total += r.local[c].q.len()
		}
	}
	return total + n.partialEjected
}

// checkInvariants verifies flow-control conservation: for every link VC
// the sender's credits plus the flits buffered at the receiver equal
// SlotsPerVC, credits stay within 0..SlotsPerVC, and each class injection
// queue's slot count equals its occupancy. It also checks that a router's
// occupancy mask marks exactly its non-empty inputs.
func (n *Network) checkInvariants() error {
	for _, r := range n.routers {
		for p := 0; p < numNeighborPorts; p++ {
			for v := 0; v < VCsPerPort; v++ {
				credits := r.out[p][v].credits
				if credits < 0 || credits > SlotsPerVC {
					return fmt.Errorf("cmesh: router %d port %d vc %d holds %d credits, want 0..%d", r.id, p, v, credits, SlotsPerVC)
				}
				queued := 0
				if nb := r.nb[p]; nb != nil {
					queued = nb.in[opposite[p]][v].q.len()
				}
				if credits+queued != SlotsPerVC {
					return fmt.Errorf("cmesh: router %d port %d vc %d: %d credits + %d queued downstream != %d slots", r.id, p, v, credits, queued, SlotsPerVC)
				}
			}
		}
		for c := range r.local {
			if used, queued := r.localSlotsUsed[c], r.local[c].q.len(); used != queued {
				return fmt.Errorf("cmesh: router %d class %d counts %d slots used, %d flits queued", r.id, c, used, queued)
			}
		}
		for i, ref := range r.inputs {
			if marked, held := r.occ&(1<<i) != 0, ref.vc.q.len() > 0; marked != held {
				return fmt.Errorf("cmesh: router %d input %d occupancy bit %v, holds flits %v", r.id, i, marked, held)
			}
		}
	}
	return nil
}

// WavelengthsOn is always 0: the electrical mesh has no photonic state.
// It exists so both backends satisfy the streaming window sampler's
// source interface.
func (n *Network) WavelengthsOn() float64 { return 0 }
