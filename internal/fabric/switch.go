package fabric

import (
	"fmt"
	"math/rand"

	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// LBPolicy selects among equal-cost egress ports.
type LBPolicy int

// Load-balancing policies.
const (
	// LBECMP hashes the flow (and PathKey) to one path: flow-level.
	LBECMP LBPolicy = iota
	// LBAdaptive picks the candidate egress with the least queued data
	// bytes, per packet — the in-network adaptive routing the paper
	// implements in the switch ingress pipeline (§5).
	LBAdaptive
	// LBSpray picks a uniformly random candidate per packet.
	LBSpray
)

func (l LBPolicy) String() string {
	switch l {
	case LBECMP:
		return "ECMP"
	case LBAdaptive:
		return "AR"
	case LBSpray:
		return "Spray"
	default:
		return fmt.Sprintf("LB(%d)", int(l))
	}
}

// SwitchConfig parameterizes a switch.
type SwitchConfig struct {
	// BufferBytes is the shared packet buffer.
	BufferBytes int
	// Lossless enables PFC: nothing is dropped or trimmed; per-ingress
	// occupancy beyond XOFF pauses the upstream port.
	Lossless bool
	// PFCXoff / PFCXon are the per-ingress pause thresholds in bytes.
	PFCXoff, PFCXon int
	// Trimming enables the DCP packet trimming module: over-threshold DCP
	// data packets become header-only packets in the control queue.
	Trimming bool
	// TrimThreshold is the egress data-queue depth (bytes) beyond which
	// packets are trimmed (DCP data) or dropped (everything else).
	TrimThreshold int
	// CtrlQueueCap bounds the control queue (bytes); overflow drops HO
	// packets (the Table 5 loss mode).
	CtrlQueueCap int
	// WRRWeight is the control:data byte-share ratio of the DCP WRR
	// scheduler. Ignored when Lossless (strict priority is used).
	WRRWeight float64
	// ECNKmin/ECNKmax/ECNPmax configure RED-style ECN marking on the data
	// queue (for DCQCN). Zero Kmax disables marking.
	ECNKmin, ECNKmax int
	ECNPmax          float64
	// LB is the load-balancing policy across equal-cost paths.
	LB LBPolicy
	// LossRate injects uniform random loss on data packets at egress
	// enqueue (the Fig. 10/17 "enforced loss" switch behaviour): DCP data
	// is trimmed, everything else is dropped.
	LossRate float64
	// DirectHOReturn implements the §7 "back-to-sender" alternative: the
	// switch maintains the sender↔receiver QPN mapping and bounces trimmed
	// HO packets straight back to the sender, skipping the receiver. Saves
	// up to half an RTT of loss-notification latency at the cost of
	// per-connection switch state (which is why the paper rejects it).
	DirectHOReturn bool
}

// DefaultSwitchConfig returns the configuration used by the paper's lossy
// simulations: 32 MB shared buffer, trimming at a 1 MB egress data-queue
// depth (the per-port share of the shared buffer — deep enough that
// WebSearch at load 0.3 sees no loss, matching Fig. 1's observation, while
// incast bursts trim), DCQCN-compatible ECN thresholds, control queue
// capped at 2 MB.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		BufferBytes:   32 * units.MB,
		Trimming:      true,
		TrimThreshold: 1 * units.MB,
		CtrlQueueCap:  2 * units.MB,
		WRRWeight:     4,
		ECNKmin:       100 * units.KB,
		ECNKmax:       400 * units.KB,
		ECNPmax:       0.2,
		LB:            LBAdaptive,
	}
}

// SwitchCounters aggregates per-switch statistics.
type SwitchCounters struct {
	RxPackets    int64
	TrimmedPkts  int64 // data packets converted to HO
	DroppedData  int64 // data packets dropped (non-DCP or buffer full)
	DroppedAck   int64 // ACK/CNP drops
	DroppedHO    int64 // HO packets lost (control queue overflow)
	HOEnqueued   int64 // HO packets entering a control queue
	ECNMarked    int64
	ForcedLosses int64 // injected by LossRate
	PauseOn      int64 // PFC pause assertions
	// BlackoutDrops counts packets lost to an injected switch blackout:
	// the buffered packets flushed when the switch goes dark plus every
	// arrival discarded while it is down.
	BlackoutDrops int64
	// LinkDownDrops counts packets flushed from a dead egress that could
	// not be rescued by trimming (trimmed rescues count as TrimmedPkts).
	LinkDownDrops int64
	MaxBufUsed    int
}

// Egress is one switch output port: the line-rate serializer plus the
// data/control queues.
type Egress struct {
	Port  *Port
	sched switchScheduler
	idx   int32 // this egress's index on its switch, for tracing
	down  bool  // link-down fault: data-plane port status
}

// LinkDown reports whether the egress link is marked down.
func (e *Egress) LinkDown() bool { return e.down }

// QueuedDataBytes returns the egress data-queue depth (the signal adaptive
// routing and trimming use).
func (e *Egress) QueuedDataBytes() int { return e.sched.dataBytes() }

// QueuedCtrlBytes returns the control-queue depth.
func (e *Egress) QueuedCtrlBytes() int { return e.sched.ctrlBytes() }

// Switch is an output-queued shared-buffer switch.
type Switch struct {
	eng *sim.Engine
	id  packet.NodeID
	cfg SwitchConfig
	rng *rand.Rand

	egress  []*Egress
	ingress []*Wire // ingress index -> arriving wire (for PFC pause)

	ingressBytes  []int
	ingressPaused []bool

	bufUsed  int
	blackout bool

	// routes[dst] lists candidate egress port indices for destination
	// host dst. Built by package topo.
	routes [][]int

	// trace, when non-nil, receives packet-lifecycle events (enqueue, trim,
	// drops, ECN, pause). Every emission site nil-checks first so the
	// disabled hot path is a single comparison.
	trace *obs.Tracer

	Counters SwitchCounters
}

// NewSwitch creates a switch with the given node id and config.
func NewSwitch(eng *sim.Engine, id packet.NodeID, cfg SwitchConfig) *Switch {
	return &Switch{eng: eng, id: id, cfg: cfg, rng: eng.Rand()}
}

// ID returns the switch's node id.
func (s *Switch) ID() packet.NodeID { return s.id }

// Config returns the switch configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// AddEgress attaches an output port transmitting at rate onto wire and
// returns its index.
func (s *Switch) AddEgress(rate units.Rate, wire *Wire) int {
	var sched switchScheduler
	if s.cfg.Lossless {
		sched = &prioScheduler{}
	} else {
		sched = newDRRScheduler(s.cfg.WRRWeight)
	}
	port := NewPort(s.eng, rate, wire, sched)
	port.OnDequeue = s.onDequeue
	s.egress = append(s.egress, &Egress{Port: port, sched: sched, idx: int32(len(s.egress))})
	return len(s.egress) - 1
}

// SetTrace attaches (or with nil detaches) the observability trace sink.
// The sink only observes: attaching one never changes switch behaviour.
func (s *Switch) SetTrace(tr *obs.Tracer) { s.trace = tr }

// AddIngress registers an arriving wire and returns the ingress index the
// wire must deliver with.
func (s *Switch) AddIngress(w *Wire) int {
	s.ingress = append(s.ingress, w)
	s.ingressBytes = append(s.ingressBytes, 0)
	s.ingressPaused = append(s.ingressPaused, false)
	return len(s.ingress) - 1
}

// SetRoutes installs the destination → candidate egress table. The switch
// only reads it, so destinations may share one candidate slice.
func (s *Switch) SetRoutes(routes [][]int) { s.routes = routes }

// Route returns the candidate egress list for destination host dst (nil if
// none). The slice belongs to the route table and must not be modified.
func (s *Switch) Route(dst packet.NodeID) []int {
	if int(dst) >= len(s.routes) {
		return nil
	}
	return s.routes[dst]
}

// EgressAt returns egress port i.
func (s *Switch) EgressAt(i int) *Egress { return s.egress[i] }

// NumEgress returns the number of output ports.
func (s *Switch) NumEgress() int { return len(s.egress) }

// Receive implements Receiver: route, then enqueue at the chosen egress.
func (s *Switch) Receive(p *packet.Packet, ingress int) {
	if s.blackout {
		// A dark switch forwards nothing; arrivals vanish silently.
		s.Counters.BlackoutDrops++
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvDataDrop, Node: s.id, Port: -1,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "blackout"})
		}
		return
	}
	s.Counters.RxPackets++
	p.Hops++
	out := s.pickEgress(p)
	if out < 0 {
		panic(fmt.Sprintf("fabric: switch %d has no route to %d", s.id, p.Dst))
	}
	s.enqueue(out, p, ingress)
}

func (s *Switch) pickEgress(p *packet.Packet) int {
	cands := s.Route(p.Dst)
	if len(cands) == 0 {
		return -1
	}
	if len(cands) == 1 {
		return cands[0]
	}
	// Per-packet policies (adaptive, spray) are data-plane: they see port
	// status and skip dead links immediately. ECMP is static routing — it
	// keeps hashing onto a dead port (blackholing) until the link returns,
	// which is the failure mode the fault experiments measure.
	switch s.cfg.LB {
	case LBECMP:
		h := hash64(p.FlowID ^ uint64(p.PathKey)<<32)
		return cands[h%uint64(len(cands))]
	case LBSpray:
		up := 0
		for _, c := range cands {
			if !s.egress[c].down {
				up++
			}
		}
		if up == 0 {
			return cands[s.rng.Intn(len(cands))]
		}
		k := s.rng.Intn(up)
		for _, c := range cands {
			if s.egress[c].down {
				continue
			}
			if k == 0 {
				return c
			}
			k--
		}
		return cands[0] // unreachable
	default: // LBAdaptive: least queued data bytes, random tie-break
		best, bestQ, ties := -1, 0, 0
		for _, c := range cands {
			if s.egress[c].down {
				continue
			}
			q := s.egress[c].sched.dataBytes()
			switch {
			case best < 0 || q < bestQ:
				best, bestQ, ties = c, q, 1
			case q == bestQ:
				// Reservoir-sample among equals so idle ports don't all
				// resolve to the lowest index.
				ties++
				if s.rng.Intn(ties) == 0 {
					best = c
				}
			}
		}
		if best < 0 {
			// Every candidate is down: blackhole onto the hash choice.
			h := hash64(p.FlowID ^ uint64(p.PathKey)<<32)
			return cands[h%uint64(len(cands))]
		}
		return best
	}
}

// ECMPIndex returns the candidate index ECMP picks for a flow among n
// equal-cost paths (exported so experiments can construct deterministic
// hash collisions, which are the phenomenon Fig. 11 studies).
func ECMPIndex(flowID uint64, pathKey uint32, n int) int {
	return int(hash64(flowID^uint64(pathKey)<<32) % uint64(n))
}

// hash64 is a splitmix64-style mixer: deterministic flow hashing.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *Switch) enqueue(out int, p *packet.Packet, ingress int) {
	e := s.egress[out]
	if s.cfg.Lossless {
		s.enqueueLossless(e, p, ingress)
		return
	}

	// Forced random loss (Fig. 10 / Fig. 17): the P4 switch trims DCP
	// traffic where it would drop other traffic.
	if s.cfg.LossRate > 0 && p.Kind == packet.KindData && s.rng.Float64() < s.cfg.LossRate {
		s.Counters.ForcedLosses++
		if p.Tag == packet.TagData && s.cfg.Trimming {
			s.trimInto(e, p, ingress)
		} else {
			s.Counters.DroppedData++
			if s.trace != nil {
				s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvDataDrop, Node: s.id, Port: e.idx,
					Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "forced-loss"})
			}
		}
		return
	}

	switch p.Kind {
	case packet.KindHO:
		s.ctrlEnqueue(e, p, ingress)
		return
	case packet.KindData:
		over := e.sched.dataBytes() > s.cfg.TrimThreshold || s.bufUsed+p.Size > s.cfg.BufferBytes
		if over {
			if p.Tag == packet.TagData && s.cfg.Trimming {
				s.trimInto(e, p, ingress)
			} else {
				s.Counters.DroppedData++
				if s.trace != nil {
					s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvDataDrop, Node: s.id, Port: e.idx,
						Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(e.sched.dataBytes()), Note: "overflow"})
				}
			}
			return
		}
		s.maybeMarkECN(e, p)
		s.charge(p, ingress)
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvEnqueue, Node: s.id, Port: e.idx,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(e.sched.dataBytes() + p.Size)})
		}
		e.sched.pushData(p)
	case packet.KindAck, packet.KindCNP:
		// DCP ACK packets (tag 01) and non-DCP control are dropped over
		// threshold (§4.2).
		if e.sched.dataBytes() > s.cfg.TrimThreshold || s.bufUsed+p.Size > s.cfg.BufferBytes {
			s.Counters.DroppedAck++
			if s.trace != nil {
				s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvAckDrop, Node: s.id, Port: e.idx,
					Flow: p.FlowID, Size: int32(p.Size), Aux: int64(e.sched.dataBytes())})
			}
			return
		}
		s.charge(p, ingress)
		e.sched.pushData(p)
	default:
		// PFC frames never reach routing in this model.
		s.Counters.DroppedData++
		return
	}
	e.Port.Kick()
}

func (s *Switch) trimInto(e *Egress, p *packet.Packet, ingress int) {
	p.Trim()
	s.Counters.TrimmedPkts++
	if s.trace != nil {
		s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvTrim, Node: s.id, Port: e.idx,
			Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(e.sched.dataBytes())})
	}
	if s.cfg.DirectHOReturn {
		// Back-to-sender (§7): swap endpoints here and re-route the HO
		// packet toward the sender. The fabric-wide QPN mapping a real
		// switch would need is implicit in the simulator's packet state.
		p.Bounce()
		out := s.pickEgress(p)
		if out >= 0 {
			s.ctrlEnqueue(s.egress[out], p, ingress)
			return
		}
	}
	s.ctrlEnqueue(e, p, ingress)
}

func (s *Switch) ctrlEnqueue(e *Egress, p *packet.Packet, ingress int) {
	if e.sched.ctrlBytes()+p.Size > s.cfg.CtrlQueueCap || s.bufUsed+p.Size > s.cfg.BufferBytes {
		s.Counters.DroppedHO++
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvHODrop, Node: s.id, Port: e.idx,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(e.sched.ctrlBytes())})
		}
		return
	}
	s.Counters.HOEnqueued++
	s.charge(p, ingress)
	if s.trace != nil {
		s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvHOEnqueue, Node: s.id, Port: e.idx,
			Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(e.sched.ctrlBytes() + p.Size)})
	}
	e.sched.pushCtrl(p)
	e.Port.Kick()
}

func (s *Switch) enqueueLossless(e *Egress, p *packet.Packet, ingress int) {
	if s.bufUsed+p.Size > s.cfg.BufferBytes {
		// PFC mis-configuration (insufficient headroom): account and drop.
		s.Counters.DroppedData++
		return
	}
	if p.Kind == packet.KindData {
		s.maybeMarkECN(e, p)
		s.charge(p, ingress)
		e.sched.pushData(p)
	} else {
		s.charge(p, ingress)
		e.sched.pushCtrl(p)
	}
	s.checkPause(ingress)
	e.Port.Kick()
}

func (s *Switch) maybeMarkECN(e *Egress, p *packet.Packet) {
	if s.cfg.ECNKmax <= 0 {
		return
	}
	q := e.sched.dataBytes()
	if q <= s.cfg.ECNKmin {
		return
	}
	var mark bool
	if q >= s.cfg.ECNKmax {
		mark = true
	} else {
		frac := float64(q-s.cfg.ECNKmin) / float64(s.cfg.ECNKmax-s.cfg.ECNKmin)
		mark = s.rng.Float64() < frac*s.cfg.ECNPmax
	}
	if mark {
		p.ECN = true
		s.Counters.ECNMarked++
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvECNMark, Node: s.id, Port: e.idx,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Aux: int64(q)})
		}
	}
}

func (s *Switch) charge(p *packet.Packet, ingress int) {
	s.bufUsed += p.Size
	if s.bufUsed > s.Counters.MaxBufUsed {
		s.Counters.MaxBufUsed = s.bufUsed
	}
	p.BufIngress = int32(ingress)
	if ingress >= 0 && ingress < len(s.ingressBytes) {
		s.ingressBytes[ingress] += p.Size
	}
}

func (s *Switch) onDequeue(p *packet.Packet) {
	s.bufUsed -= p.Size
	in := int(p.BufIngress)
	if in >= 0 && in < len(s.ingressBytes) {
		s.ingressBytes[in] -= p.Size
		if s.cfg.Lossless {
			s.checkPause(in)
		}
	}
}

// checkPause asserts or clears PFC pause toward the upstream feeding
// ingress i based on its buffered bytes.
func (s *Switch) checkPause(i int) {
	if !s.cfg.Lossless || i < 0 || i >= len(s.ingressBytes) {
		return
	}
	if !s.ingressPaused[i] && s.ingressBytes[i] > s.cfg.PFCXoff {
		s.ingressPaused[i] = true
		s.Counters.PauseOn++
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvPause, Node: s.id, Port: int32(i),
				Aux: int64(s.ingressBytes[i])})
		}
		s.ingress[i].PauseSource(true)
	} else if s.ingressPaused[i] && s.ingressBytes[i] < s.cfg.PFCXon {
		s.ingressPaused[i] = false
		s.ingress[i].PauseSource(false)
	}
}

// BufUsed returns the current shared-buffer occupancy in bytes.
func (s *Switch) BufUsed() int { return s.bufUsed }

// SetLossRate changes the enforced-loss probability at egress enqueue
// (time-varying degraded-switch faults). Unlike wire loss this is visible
// loss: DCP data packets are trimmed into HO notifications.
func (s *Switch) SetLossRate(r float64) { s.cfg.LossRate = r }

// Blackout reports whether the switch is dark.
func (s *Switch) Blackout() bool { return s.blackout }

// SetBlackout takes the switch dark (a crash/reboot) or brings it back.
// Going dark flushes every queued packet — they are gone, exactly as a
// power-cycled ASIC loses its buffer — and stops asserting PFC pause
// upstream (a dead switch sends no PAUSE refreshes). While dark, all
// arriving traffic is discarded. Coming back restores an empty switch;
// routing tables are static configuration and survive the reboot.
func (s *Switch) SetBlackout(on bool) {
	if s.blackout == on {
		return
	}
	s.blackout = on
	if !on {
		return
	}
	for _, e := range s.egress {
		for _, p := range e.sched.drain() {
			s.uncharge(p)
			s.Counters.BlackoutDrops++
			if s.trace != nil {
				s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvDataDrop, Node: s.id, Port: e.idx,
					Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "blackout"})
			}
		}
	}
	for i := range s.ingressPaused {
		if s.ingressPaused[i] {
			s.ingressPaused[i] = false
			s.ingress[i].PauseSource(false)
		}
	}
}

// SetEgressLinkDown marks egress i's link down or up. On down the egress
// queues are flushed the way a real switch flushes a dead port — but a
// trimming (DCP) switch rescues the queued DCP data packets: it trims them
// into header-only packets and re-routes them through the surviving ports,
// so the losses stay visible to senders. Everything else is dropped.
// Packets mid-flight on the wire itself are the transmitter's problem (see
// Wire.SetAdminDown). Marking the egress down also steers adaptive routing
// and spraying away from it; ECMP keeps blackholing (static routes).
func (s *Switch) SetEgressLinkDown(i int, down bool) {
	e := s.egress[i]
	if e.down == down {
		return
	}
	e.down = down
	if !down {
		return
	}
	for _, p := range e.sched.drain() {
		s.uncharge(p)
		if p.Tag == packet.TagData && s.cfg.Trimming && !s.cfg.Lossless {
			p.Trim()
			s.Counters.TrimmedPkts++
			if s.trace != nil {
				s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvTrim, Node: s.id, Port: e.idx,
					Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "linkdown-rescue"})
			}
			if out := s.pickEgress(p); out >= 0 && out != i && !s.egress[out].down {
				s.ctrlEnqueue(s.egress[out], p, int(p.BufIngress))
				continue
			}
			s.Counters.DroppedHO++
			if s.trace != nil {
				s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvHODrop, Node: s.id, Port: e.idx,
					Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "linkdown"})
			}
			continue
		}
		s.Counters.LinkDownDrops++
		if s.trace != nil {
			s.trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvDataDrop, Node: s.id, Port: e.idx,
				Flow: p.FlowID, PSN: p.PSN, MSN: p.MSN, Size: int32(p.Size), Note: "linkdown"})
		}
	}
	if s.cfg.Lossless {
		// Flushing freed per-ingress buffer credit; release stale pauses.
		for in := range s.ingressBytes {
			s.checkPause(in)
		}
	}
}

// uncharge reverses charge for a packet flushed from a queue (it will
// never reach onDequeue).
func (s *Switch) uncharge(p *packet.Packet) {
	s.bufUsed -= p.Size
	if in := int(p.BufIngress); in >= 0 && in < len(s.ingressBytes) {
		s.ingressBytes[in] -= p.Size
	}
}
