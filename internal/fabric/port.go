// Package fabric models the network data plane: wires (propagation),
// ports (serialization, PFC pause), queue schedulers (FIFO,
// strict-priority, the DCP byte-weighted WRR), and the switch itself
// (shared buffer, packet trimming, ECN marking, PFC, load balancing).
package fabric

import (
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// Receiver consumes packets delivered by a wire. Switches and NICs
// implement it.
type Receiver interface {
	Receive(p *packet.Packet, ingress int)
}

// Wire is one direction of a link: after the source port finishes
// serializing a packet, the wire delivers it to the destination's ingress
// after the propagation delay. Wires also carry PFC pause indications back
// to their source port (modeled without serialization, as PFC frames are
// link-local and tiny).
type Wire struct {
	eng     *sim.Engine
	delay   units.Time
	dst     Receiver
	ingress int      // ingress index at dst
	src     *Port    // the port that transmits onto this wire
	comp    sim.Comp // profiler attribution of delivery events at dst

	// inflight holds the packets propagating on the wire. Every packet
	// takes the same delay, so arrivals fire in the order packets entered,
	// and the arrival event (arrive, bound once to land) pops the head.
	inflight pktRing
	arrive   func()

	// Fault-injection state (package faults drives these): an admin-down
	// wire silently discards everything handed to it; lossRate models
	// time-varying BER loss; burstDrop discards the next N packets (a
	// correlated error burst); dupNext delivers the next N data packets
	// twice (a misbehaving fabric — the fault the exactly-once invariant
	// exists to catch).
	adminDown bool
	lossRate  float64
	burstDrop int
	dupNext   int

	// Delivered counts packets carried, for tests.
	Delivered uint64
	// FaultDrops counts packets discarded by injected faults (admin-down,
	// BER loss, bursts). These losses are silent: no trim, no notification.
	FaultDrops uint64
	// DupInjected counts data packets the wire delivered twice.
	DupInjected uint64
}

// NewWire creates a wire with the given propagation delay, terminating at
// dst's ingress index.
func NewWire(eng *sim.Engine, delay units.Time, dst Receiver, ingress int) *Wire {
	w := &Wire{eng: eng, delay: delay, dst: dst, ingress: ingress, comp: sim.CompFabric}
	w.arrive = w.land
	return w
}

// IngressNode is a receiver that tracks its arriving wires (switches need
// the wire to send PFC pause upstream).
type IngressNode interface {
	Receiver
	AddIngress(w *Wire) int
}

// Attach creates a wire into dst and registers it as an ingress, returning
// the wire ready to be used as a port's output.
func Attach(eng *sim.Engine, delay units.Time, dst IngressNode) *Wire {
	w := NewWire(eng, delay, dst, 0)
	w.ingress = dst.AddIngress(w)
	return w
}

// SetDeliverComp overrides the profiler component delivery events at this
// wire's destination are attributed to. Wires default to CompFabric; a NIC
// registering an arriving wire retags it CompNIC so host-side receive
// processing (transport Handle and everything it causes) is attributed to
// the host, not the fabric.
func (w *Wire) SetDeliverComp(c sim.Comp) { w.comp = c }

// Delay returns the propagation delay.
func (w *Wire) Delay() units.Time { return w.delay }

// Deliver schedules the packet's arrival at the destination. Packets
// handed to a faulted wire are lost silently — the transmitter has no way
// to know, which is exactly what distinguishes wire-level faults from the
// switch-visible losses DCP turns into trim notifications. Packets already
// propagating when a fault hits still arrive (the cut happens at the
// transmitter end).
func (w *Wire) Deliver(p *packet.Packet) {
	if w.adminDown {
		w.FaultDrops++
		return
	}
	if w.burstDrop > 0 {
		w.burstDrop--
		w.FaultDrops++
		return
	}
	if w.lossRate > 0 && w.eng.Rand().Float64() < w.lossRate {
		w.FaultDrops++
		return
	}
	w.Delivered++
	if w.dupNext > 0 && p.Kind == packet.KindData {
		w.dupNext--
		w.DupInjected++
		// Packet structs are all value fields, so a shallow copy is a full
		// duplicate. The original arrives first, the copy right behind it
		// (same arrival time, FIFO event order).
		cp := *p
		w.inflight.push(p)
		w.eng.AfterComp(w.delay, w.comp, w.arrive)
		p = &cp
	}
	w.inflight.push(p)
	w.eng.AfterComp(w.delay, w.comp, w.arrive)
}

// land delivers the packet at the head of the wire to its destination.
func (w *Wire) land() { w.dst.Receive(w.inflight.pop(), w.ingress) }

// SetAdminDown takes the wire administratively down or up. While down,
// every packet handed to the wire is silently discarded.
func (w *Wire) SetAdminDown(down bool) { w.adminDown = down }

// AdminDown reports whether the wire is administratively down.
func (w *Wire) AdminDown() bool { return w.adminDown }

// SetLossRate sets the wire's instantaneous random loss probability
// (0 disables). Draws come from the engine's seeded random source, so a
// given seed reproduces the same losses.
func (w *Wire) SetLossRate(r float64) { w.lossRate = r }

// LossRate returns the current injected loss probability.
func (w *Wire) LossRate() float64 { return w.lossRate }

// InjectBurst discards the next n packets handed to the wire — a
// correlated error burst.
func (w *Wire) InjectBurst(n int) {
	if n > 0 {
		w.burstDrop += n
	}
}

// InjectDup makes the wire deliver the next n data packets twice — a
// duplicating fabric (mis-wired multicast, a flaky retimer). DCP's
// receiver must reject the copies; the flight recorder's exactly-once
// invariant uses this to prove it notices when something double-counts.
func (w *Wire) InjectDup(n int) {
	if n > 0 {
		w.dupNext += n
	}
}

// Src returns the port transmitting onto this wire (nil before NewPort).
func (w *Wire) Src() *Port { return w.src }

// PauseSource asserts or clears PFC pause on the port feeding this wire,
// after one propagation delay (the time a real PAUSE frame would take to
// travel upstream on the reverse wire).
func (w *Wire) PauseSource(on bool) {
	if w.src == nil {
		return
	}
	w.eng.AfterComp(w.delay, sim.CompFabric, func() { w.src.SetDataPaused(on) })
}

// Scheduler is a port's queue discipline. Next returns the next packet to
// transmit or nil. When dataPaused is true (PFC PAUSE asserted by the
// downstream ingress) only control-plane packets (ACK/CNP/HO, which ride a
// separate priority in real deployments) may be returned.
type Scheduler interface {
	Next(dataPaused bool) *packet.Packet
	// Backlog returns the queued bytes (all queues), used by tests and
	// adaptive routing on NIC-less ports.
	Backlog() int
}

// Port serializes packets from its scheduler onto its wire at a fixed rate.
// It is work-conserving: Kick must be called whenever new work may be
// available (after an enqueue, unpause, or pacing deadline).
type Port struct {
	eng   *sim.Engine
	rate  units.Rate
	wire  *Wire
	sched Scheduler
	comp  sim.Comp // profiler attribution of tx-completion events

	// tx is the packet being serialized (nil when idle); txDone, bound once
	// to finishTx, is the tx-completion event.
	tx     *packet.Packet
	txDone func()

	dataPaused  bool
	forcedPause bool // fault injection: held paused regardless of PFC

	// OnDequeue, if set, is invoked when a packet starts transmission
	// (switches use it to credit buffer accounting).
	OnDequeue func(p *packet.Packet)

	// Tap, if set, observes every packet as it begins serialization —
	// the hook packet capture and tracing attach to.
	Tap func(p *packet.Packet)

	// TxBytes and TxPackets count transmitted traffic.
	TxBytes   int64
	TxPackets int64
	// PausedTime accumulates time spent paused, for PFC statistics.
	PausedTime  units.Time
	pausedSince units.Time
}

// NewPort creates a port transmitting at rate onto wire, fed by sched.
func NewPort(eng *sim.Engine, rate units.Rate, wire *Wire, sched Scheduler) *Port {
	p := &Port{eng: eng, rate: rate, wire: wire, sched: sched, comp: sim.CompFabric}
	p.txDone = p.finishTx
	if wire != nil {
		wire.src = p
	}
	return p
}

// SetComp overrides the profiler component this port's tx-completion
// events are attributed to (a host NIC's egress port tags CompNIC — the
// completion closure pulls the next packet from the transport, which is
// host work).
func (p *Port) SetComp(c sim.Comp) { p.comp = c }

// Rate returns the port's line rate.
func (p *Port) Rate() units.Rate { return p.rate }

// SetRate changes the line rate (used to model unequal parallel paths).
func (p *Port) SetRate(r units.Rate) { p.rate = r }

// DataPaused reports whether PFC pause is asserted.
func (p *Port) DataPaused() bool { return p.dataPaused }

// ForcedPause reports whether a fault-injected pause is asserted.
func (p *Port) ForcedPause() bool { return p.forcedPause }

// paused is the effective pause state: PFC pause OR a forced (injected)
// pause storm.
func (p *Port) paused() bool { return p.dataPaused || p.forcedPause }

// SetDataPaused asserts or clears PFC pause for data traffic. The packet
// currently being serialized (if any) completes, as with real PFC.
func (p *Port) SetDataPaused(on bool) {
	if p.dataPaused == on {
		return
	}
	was := p.paused()
	p.dataPaused = on
	p.pauseEdge(was)
}

// SetForcedPause asserts or clears a fault-injected pause (a pause storm:
// the port behaves as if the peer kept it XOFF'd). It ORs with PFC pause.
func (p *Port) SetForcedPause(on bool) {
	if p.forcedPause == on {
		return
	}
	was := p.paused()
	p.forcedPause = on
	p.pauseEdge(was)
}

// pauseEdge accounts a transition of the effective pause state.
func (p *Port) pauseEdge(was bool) {
	now := p.paused()
	if was == now {
		return
	}
	if now {
		p.pausedSince = p.eng.Now()
	} else {
		p.PausedTime += p.eng.Now() - p.pausedSince
		p.Kick()
	}
}

// Kick attempts to start transmitting the next packet. Idempotent.
func (p *Port) Kick() {
	if p.tx != nil {
		return
	}
	pkt := p.sched.Next(p.paused())
	if pkt == nil {
		return
	}
	if p.OnDequeue != nil {
		p.OnDequeue(pkt)
	}
	if p.Tap != nil {
		p.Tap(pkt)
	}
	p.tx = pkt
	p.TxBytes += int64(pkt.Size)
	p.TxPackets++
	p.eng.AfterComp(units.TxTime(pkt.Size, p.rate), p.comp, p.txDone)
}

// finishTx ends the current serialization: the packet goes onto the wire
// and the port pulls its next one.
func (p *Port) finishTx() {
	pkt := p.tx
	p.tx = nil
	p.wire.Deliver(pkt)
	p.Kick()
}

// Busy reports whether a packet is currently being serialized.
func (p *Port) Busy() bool { return p.tx != nil }

// pktRing is a FIFO of packets in a power-of-two ring. It doubles when
// full and never shrinks, so a queue that stays busy reuses its slots.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		nb := make([]*packet.Packet, max(8, 2*len(r.buf)))
		k := copy(nb, r.buf[r.head:])
		copy(nb[k:], r.buf[:r.head])
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes and returns the head packet, or nil if the ring is empty.
func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// peek returns the head packet without removing it; the ring must not be
// empty.
func (r *pktRing) peek() *packet.Packet { return r.buf[r.head] }

// fifoQueue is a byte-counted FIFO of packets.
type fifoQueue struct {
	ring  pktRing
	bytes int
}

func (q *fifoQueue) push(p *packet.Packet) {
	q.ring.push(p)
	q.bytes += p.Size
}

func (q *fifoQueue) pop() *packet.Packet {
	p := q.ring.pop()
	if p != nil {
		q.bytes -= p.Size
	}
	return p
}

func (q *fifoQueue) peek() *packet.Packet { return q.ring.peek() }
func (q *fifoQueue) len() int             { return q.ring.n }
func (q *fifoQueue) byteLen() int         { return q.bytes }
func (q *fifoQueue) empty() bool          { return q.ring.n == 0 }

// drainInto appends every queued packet to out and empties the queue.
func (q *fifoQueue) drainInto(out []*packet.Packet) []*packet.Packet {
	for !q.empty() {
		out = append(out, q.pop())
	}
	return out
}

// FIFOScheduler is a single FIFO queue; pause holds everything but
// control-plane packets at the head (sufficient for host-facing ports in
// tests).
type FIFOScheduler struct {
	q fifoQueue
}

// Enqueue adds a packet.
func (s *FIFOScheduler) Enqueue(p *packet.Packet) { s.q.push(p) }

// Next implements Scheduler.
func (s *FIFOScheduler) Next(dataPaused bool) *packet.Packet {
	if s.q.empty() {
		return nil
	}
	if dataPaused {
		// Only a control packet at the head may pass; we do not reorder.
		if s.q.peek().Kind == packet.KindData {
			return nil
		}
	}
	return s.q.pop()
}

// Backlog implements Scheduler.
func (s *FIFOScheduler) Backlog() int { return s.q.byteLen() }

// Len returns queued packets.
func (s *FIFOScheduler) Len() int { return s.q.len() }

// PullScheduler adapts a pull function (a NIC asking its transport for the
// next packet) to the Scheduler interface.
type PullScheduler struct {
	Pull func(dataPaused bool) *packet.Packet
}

// Next implements Scheduler.
func (s *PullScheduler) Next(dataPaused bool) *packet.Packet { return s.Pull(dataPaused) }

// Backlog implements Scheduler; pull sources have no local queue.
func (s *PullScheduler) Backlog() int { return 0 }
