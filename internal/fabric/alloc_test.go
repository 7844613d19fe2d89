// Allocation counts are meaningless under the race detector (its
// instrumentation can allocate); CI runs this guard in a non-race step.
//go:build !race

package fabric

import (
	"testing"

	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

type countingReceiver struct{ n int }

func (c *countingReceiver) Receive(*packet.Packet, int) { c.n++ }

// TestHopAllocationFree: once warm, a packet's hop from a port's queue
// through serialization, the wire and delivery to the receiver allocates
// nothing.
func TestHopAllocationFree(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := &countingReceiver{}
	sched := &FIFOScheduler{}
	port := NewPort(eng, 100*units.Gbps, NewWire(eng, units.Microsecond, rx, 0), sched)
	pkts := []*packet.Packet{dataPkt(1000), dataPkt(1000), dataPkt(64)}
	hop := func() {
		for _, p := range pkts {
			sched.Enqueue(p)
		}
		port.Kick()
		eng.Run(0)
	}
	hop()
	if a := testing.AllocsPerRun(100, hop); a != 0 {
		t.Fatalf("one hop allocates %.1f per run, want 0", a)
	}
	// AllocsPerRun makes one warm-up call beyond its 100 runs.
	if want := 102 * len(pkts); rx.n != want {
		t.Fatalf("delivered %d packets, want %d", rx.n, want)
	}
}
