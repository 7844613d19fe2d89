// Package nic models the host RNIC: the link-facing port, the pull
// interface transports implement, and the microarchitectural pieces the
// paper's DCP-RNIC adds (PCIe/DMA latency model, the per-QP RetransQ in
// host memory).
package nic

import (
	"dcpsim/internal/fabric"
	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// Transport is the endpoint logic running on a NIC. The NIC pulls packets
// to transmit (fetch-and-drop style QP scheduling happens inside the
// transport) and pushes arriving packets in.
type Transport interface {
	// Handle processes a packet arriving from the network.
	Handle(p *packet.Packet)
	// Dequeue returns the next packet to put on the wire, or nil if
	// nothing is eligible now. When dataPaused (PFC) only control-plane
	// packets (ACK/CNP/HO) may be returned.
	Dequeue(now units.Time, dataPaused bool) *packet.Packet
}

// NIC is one host's network interface.
type NIC struct {
	eng  *sim.Engine
	id   packet.NodeID
	rate units.Rate
	port *fabric.Port
	tr   Transport

	// kick is the pacing timer behind KickAt; its deadline is the earliest
	// requested kick.
	kick *sim.Timer

	// trace, when non-nil, sees data deliveries (EvDeliver). Nil-checked at
	// the call site so the disabled path costs one comparison.
	trace *obs.Tracer

	// RxPackets counts packets delivered to the transport.
	RxPackets int64
	// DeliveredBytes accumulates data payload arriving at this NIC.
	// Duplicate deliveries count twice — it is a raw wire-side observation
	// (the goodput-trace signal fault experiments sample), not exactly-once
	// application goodput.
	DeliveredBytes int64
}

// New creates a NIC for host id with the given line rate.
func New(eng *sim.Engine, id packet.NodeID, rate units.Rate) *NIC {
	n := &NIC{eng: eng, id: id, rate: rate}
	n.kick = sim.NewTimer(eng, n.Kick)
	n.kick.Comp = sim.CompNIC
	return n
}

// ID returns the host's node id.
func (n *NIC) ID() packet.NodeID { return n.id }

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Rate returns the NIC line rate.
func (n *NIC) Rate() units.Rate { return n.rate }

// SetTransport installs the endpoint logic. Must be called before traffic
// flows.
func (n *NIC) SetTransport(t Transport) { n.tr = t }

// Transport returns the installed endpoint logic.
func (n *NIC) Transport() Transport { return n.tr }

// SetUplink attaches the NIC's egress onto wire (created with
// fabric.Attach toward the first-hop switch or peer NIC).
func (n *NIC) SetUplink(w *fabric.Wire) {
	n.port = fabric.NewPort(n.eng, n.rate, w, &fabric.PullScheduler{Pull: n.pull})
	// The egress tx-completion closure pulls the next packet from the
	// transport — host work, so the profiler books it to the NIC.
	n.port.SetComp(sim.CompNIC)
}

// Port returns the egress port (nil before SetUplink).
func (n *NIC) Port() *fabric.Port { return n.port }

func (n *NIC) pull(dataPaused bool) *packet.Packet {
	if n.tr == nil {
		return nil
	}
	return n.tr.Dequeue(n.eng.Now(), dataPaused)
}

// AddIngress implements fabric.IngressNode; NICs do not track arriving
// wires, but retag them so delivery events (Receive → transport Handle)
// profile as host-side work rather than fabric propagation.
func (n *NIC) AddIngress(w *fabric.Wire) int {
	w.SetDeliverComp(sim.CompNIC)
	return 0
}

// SetTrace attaches (or with nil detaches) the observability trace sink.
func (n *NIC) SetTrace(tr *obs.Tracer) { n.trace = tr }

// Receive implements fabric.Receiver.
func (n *NIC) Receive(p *packet.Packet, _ int) {
	n.RxPackets++
	if p.Kind == packet.KindData {
		n.DeliveredBytes += int64(p.PayloadBytes)
		if n.trace != nil {
			n.trace.Emit(obs.Event{At: n.eng.Now(), Type: obs.EvDeliver, Node: n.id, Port: -1,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: n.DeliveredBytes})
		}
	}
	if n.tr != nil {
		n.tr.Handle(p)
	}
}

// Kick prompts the egress port to pull work. Transports call it whenever
// new work becomes available (message posted, HO arrived, timer fired).
func (n *NIC) Kick() {
	if n.port != nil {
		n.port.Kick()
	}
}

// KickAt arranges a Kick at absolute time t (used for rate pacing). An
// earlier pending KickAt subsumes a later one.
func (n *NIC) KickAt(t units.Time) {
	if t <= n.eng.Now() {
		n.Kick()
		return
	}
	if n.kick.Armed() && n.kick.Deadline() <= t {
		return
	}
	n.kick.Reset(t - n.eng.Now())
}

// PCIe models the host interconnect between the RNIC and host memory with
// a fixed round-trip latency, the quantity that dominates the paper's
// retransmission-efficiency analysis (footnote 9: one 1 KB fetch per PCIe
// RTT of 1 µs caps recovery throughput at 4 Gbps).
type PCIe struct {
	RTT units.Time
}

// DefaultPCIe matches the paper's assumption of a ~1 µs PCIe round trip.
func DefaultPCIe() PCIe { return PCIe{RTT: 1 * units.Microsecond} }

// RetransEntry is one HO-derived retransmission record: (MSN, PSN) plus the
// packet's offset within its message (recoverable from PSN, carried here
// for directness).
type RetransEntry struct {
	MSN    uint32
	PSN    uint32
	Offset uint32
	// Epoch records the message's sRetryNo when the entry was pushed;
	// entries from a superseded retry epoch are discarded at fetch time
	// (mirrors the receiver's sRetryNo check, §4.5).
	Epoch uint8
}

// RetransQ is the per-QP retransmission queue DCP-RNIC keeps in host
// memory (§4.3): the Rx path DMA-writes entries; the Tx path fetches
// batches of up to BatchLimit entries per PCIe round trip.
type RetransQ struct {
	entries []RetransEntry
	head    int

	// Pushed and Fetched count entries through the queue.
	Pushed  int64
	Fetched int64
}

// BatchLimit is the maximum entries fetched per scheduling round
// (min(16, len, awin/MTU) in the paper; 16×1KB equals the 16 KB
// round_quota).
const BatchLimit = 16

// Push appends an entry (the Rx-path DMA write).
func (q *RetransQ) Push(e RetransEntry) {
	q.entries = append(q.entries, e)
	q.Pushed++
}

// Len returns queued entries (the QPC-maintained length).
func (q *RetransQ) Len() int { return len(q.entries) - q.head }

// FetchBatch removes and returns up to max entries (bounded by BatchLimit).
func (q *RetransQ) FetchBatch(max int) []RetransEntry {
	if max > BatchLimit {
		max = BatchLimit
	}
	n := q.Len()
	if n == 0 || max <= 0 {
		return nil
	}
	if max > n {
		max = n
	}
	out := q.entries[q.head : q.head+max]
	q.head += max
	q.Fetched += int64(max)
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	}
	return out
}
