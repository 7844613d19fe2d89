package fabric

import (
	"math"

	"dcpsim/internal/packet"
)

// switchScheduler is the egress discipline of one switch port: a data queue
// plus a control queue, drained either by byte-weighted WRR (the DCP
// switch, §4.2) or by strict priority (the PFC/lossless configuration,
// where the control queue carries ACK/CNP on an unpausable priority).
type switchScheduler interface {
	Scheduler
	pushData(p *packet.Packet)
	pushCtrl(p *packet.Packet)
	dataBytes() int
	ctrlBytes() int
	// drain removes and returns every queued packet (control first), used
	// when a port's link dies or the whole switch blacks out.
	drain() []*packet.Packet
}

// drrScheduler implements the DCP weighted round-robin as a byte-based
// deficit round robin between the control and data queues. With quanta in
// ratio w:1 the control queue receives a w/(1+w) bandwidth share when both
// queues are backlogged, matching the paper's drain-rate analysis.
type drrScheduler struct {
	ctrl, data       fifoQueue
	ctrlQ, dataQ     int // quanta in bytes
	ctrlDef, dataDef int // deficit counters
}

// drrBaseQuantum is the data-queue quantum; one full-size frame so that a
// single round never bursts more than a packet per queue beyond its share.
const drrBaseQuantum = 1600

func newDRRScheduler(weight float64) *drrScheduler {
	if weight <= 0 {
		weight = 1
	}
	return &drrScheduler{
		ctrlQ: int(math.Ceil(weight * drrBaseQuantum)),
		dataQ: drrBaseQuantum,
	}
}

func (s *drrScheduler) pushData(p *packet.Packet) { s.data.push(p) }
func (s *drrScheduler) pushCtrl(p *packet.Packet) { s.ctrl.push(p) }
func (s *drrScheduler) dataBytes() int            { return s.data.byteLen() }
func (s *drrScheduler) ctrlBytes() int            { return s.ctrl.byteLen() }
func (s *drrScheduler) Backlog() int              { return s.data.byteLen() + s.ctrl.byteLen() }

func (s *drrScheduler) drain() []*packet.Packet {
	s.ctrlDef, s.dataDef = 0, 0
	return s.data.drainInto(s.ctrl.drainInto(nil))
}

func (s *drrScheduler) Next(dataPaused bool) *packet.Packet {
	ctrlEmpty := s.ctrl.empty()
	dataEmpty := s.data.empty() || dataPaused
	if ctrlEmpty && dataEmpty {
		// Idle: reset deficits so an idle queue does not bank credit.
		s.ctrlDef, s.dataDef = 0, 0
		return nil
	}
	for {
		if !s.ctrl.empty() {
			if head := s.ctrl.peek(); s.ctrlDef >= head.Size {
				s.ctrlDef -= head.Size
				return s.ctrl.pop()
			}
		}
		if !s.data.empty() && !dataPaused {
			if head := s.data.peek(); s.dataDef >= head.Size {
				s.dataDef -= head.Size
				return s.data.pop()
			}
		}
		// Neither head fits its deficit: start a new round.
		if s.ctrl.empty() {
			s.ctrlDef = 0
		} else {
			s.ctrlDef += s.ctrlQ
		}
		if s.data.empty() || dataPaused {
			s.dataDef = 0
		} else {
			s.dataDef += s.dataQ
		}
	}
}

// prioScheduler serves the control queue with strict priority; the data
// queue is subject to PFC pause. Used by lossless (PFC) switch ports.
type prioScheduler struct {
	ctrl, data fifoQueue
}

func (s *prioScheduler) pushData(p *packet.Packet) { s.data.push(p) }
func (s *prioScheduler) pushCtrl(p *packet.Packet) { s.ctrl.push(p) }
func (s *prioScheduler) dataBytes() int            { return s.data.byteLen() }
func (s *prioScheduler) ctrlBytes() int            { return s.ctrl.byteLen() }
func (s *prioScheduler) Backlog() int              { return s.data.byteLen() + s.ctrl.byteLen() }

func (s *prioScheduler) drain() []*packet.Packet {
	return s.data.drainInto(s.ctrl.drainInto(nil))
}

func (s *prioScheduler) Next(dataPaused bool) *packet.Packet {
	if !s.ctrl.empty() {
		return s.ctrl.pop()
	}
	if dataPaused {
		return nil
	}
	return s.data.pop()
}

// WRRWeight returns the control-queue WRR weight of §4.2 for a switch with
// radix n and a data:HO size ratio r: w = (N-1)/(r-N+1). The law only holds
// for r > N-1; beyond that no weight guarantees losslessness, so the weight
// is clamped to maxW (the paper observes a small weight still handles
// extreme incast in practice).
func WRRWeight(n int, r float64, maxW float64) float64 {
	den := r - float64(n) + 1
	if den <= 0 {
		return maxW
	}
	w := float64(n-1) / den
	if w > maxW {
		return maxW
	}
	if w < 0.1 {
		return 0.1
	}
	return w
}
