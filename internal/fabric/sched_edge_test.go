package fabric

import (
	"testing"

	"dcpsim/internal/packet"
)

// dataPkt is shared with fabric_test.go.

func edgeCtrlPkt() *packet.Packet {
	p := packet.DataPacket(1, 0, 1, 0, 0, 0)
	p.Trim()
	return p
}

// Zero or negative WRR weight must degrade to 1:1, not a zero quantum that
// starves the control queue forever.
func TestDRRZeroWeightDefaultsToOne(t *testing.T) {
	for _, w := range []float64{0, -3} {
		s := newDRRScheduler(w)
		if s.ctrlQ != drrBaseQuantum {
			t.Fatalf("weight %v: ctrl quantum %d, want %d", w, s.ctrlQ, drrBaseQuantum)
		}
		s.pushCtrl(edgeCtrlPkt())
		s.pushData(dataPkt(1000))
		if p := s.Next(false); p == nil || !p.IsControl() {
			t.Fatalf("weight %v: control packet not served first", w)
		}
	}
}

// An empty control queue must never stall data (and vice versa): the
// deficit loop has to terminate by serving the sole backlogged queue.
func TestDRRSingleQueueDegenerate(t *testing.T) {
	s := newDRRScheduler(2)
	for i := 0; i < 3; i++ {
		s.pushData(dataPkt(1500))
	}
	for i := 0; i < 3; i++ {
		if p := s.Next(false); p == nil || p.IsControl() {
			t.Fatal("data-only backlog not drained")
		}
	}
	if s.Next(false) != nil {
		t.Fatal("empty scheduler returned a packet")
	}
	for i := 0; i < 3; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 3; i++ {
		if p := s.Next(false); p == nil || !p.IsControl() {
			t.Fatal("control-only backlog not drained")
		}
	}
}

// With data paused, a DRR port may only emit control packets, and the data
// deficit must not bank credit while paused.
func TestDRRPausedDataBanksNoCredit(t *testing.T) {
	s := newDRRScheduler(1)
	s.pushData(dataPkt(1500))
	for i := 0; i < 4; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 4; i++ {
		if p := s.Next(true); p == nil || !p.IsControl() {
			t.Fatal("paused scheduler must serve control only")
		}
	}
	if s.dataDef != 0 {
		t.Fatalf("paused data queue banked %d bytes of deficit", s.dataDef)
	}
	if p := s.Next(false); p == nil || p.IsControl() {
		t.Fatal("unpaused data packet not served")
	}
}

// drain must return every queued packet, control first, and reset deficits
// so a revived port starts a clean round.
func TestDRRDrainReturnsEverythingCtrlFirst(t *testing.T) {
	s := newDRRScheduler(2)
	for i := 0; i < 2; i++ {
		s.pushCtrl(edgeCtrlPkt())
	}
	for i := 0; i < 3; i++ {
		s.pushData(dataPkt(1000))
	}
	s.Next(false) // start a round so deficits are nonzero
	out := s.drain()
	if len(out) != 4 { // Next consumed one of the five
		t.Fatalf("drain returned %d packets, want 4", len(out))
	}
	if !out[0].IsControl() {
		t.Fatal("drain must return control packets first")
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog %d after drain, want 0", s.Backlog())
	}
	if s.ctrlDef != 0 || s.dataDef != 0 {
		t.Fatal("drain must reset deficit counters")
	}
	if s.Next(false) != nil {
		t.Fatal("drained scheduler returned a packet")
	}
}

func TestPrioDrainReturnsEverything(t *testing.T) {
	s := &prioScheduler{}
	s.pushData(dataPkt(1000))
	s.pushCtrl(edgeCtrlPkt())
	out := s.drain()
	if len(out) != 2 || !out[0].IsControl() {
		t.Fatalf("prio drain = %d packets (ctrl-first=%v), want 2 ctrl-first", len(out), len(out) > 0 && out[0].IsControl())
	}
	if s.Backlog() != 0 {
		t.Fatal("backlog after prio drain")
	}
}

// WRRWeight clamps: an infeasible ratio (r <= N-1) returns maxW, and the
// weight never drops below 0.1.
func TestWRRWeightClamps(t *testing.T) {
	if w := WRRWeight(64, 28, 8); w != 8 {
		t.Fatalf("infeasible ratio: weight %v, want maxW 8", w)
	}
	if w := WRRWeight(2, 1000, 8); w != 0.1 {
		t.Fatalf("tiny weight not floored: %v, want 0.1", w)
	}
	if w := WRRWeight(16, 28, 8); w <= 0.1 || w >= 8 {
		t.Fatalf("feasible ratio clamped: %v", w)
	}
}

// A queue that never empties must reuse its slots: cycling many packets
// through it keeps the backing array at its peak occupancy, and FIFO order
// and the byte count hold across wrap-around and growth.
func TestFIFOQueueReusesSlots(t *testing.T) {
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = dataPkt(100 + i)
	}
	var q fifoQueue
	in, out := 0, 0
	push := func() {
		q.push(pkts[in%len(pkts)])
		in++
	}
	pop := func() {
		if p := q.pop(); p != pkts[out%len(pkts)] {
			t.Fatalf("pop %d returned the wrong packet", out)
		}
		out++
	}
	for i := 0; i < 5; i++ {
		push()
	}
	for i := 0; i < 100000; i++ {
		push()
		pop()
	}
	if c := cap(q.ring.buf); c > 8 {
		t.Fatalf("backing array grew to %d slots for 5 queued packets", c)
	}
	// Grow while the head sits mid-ring, then drain in order.
	for i := 0; i < 40; i++ {
		push()
	}
	bytes := 0
	for i := out; i < in; i++ {
		bytes += pkts[i%len(pkts)].Size
	}
	if q.byteLen() != bytes || q.len() != in-out {
		t.Fatalf("len %d bytes %d, want %d and %d", q.len(), q.byteLen(), in-out, bytes)
	}
	for !q.empty() {
		pop()
	}
	if out != in || q.byteLen() != 0 || q.pop() != nil {
		t.Fatalf("drain left out=%d in=%d bytes=%d", out, in, q.byteLen())
	}
}
