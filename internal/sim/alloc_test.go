// Allocation counts are meaningless under the race detector (its
// instrumentation can allocate); CI runs this guard in a non-race step.
//go:build !race

package sim

import (
	"testing"

	"dcpsim/internal/units"
)

// TestScheduleAllocationFree: once the queue has grown, scheduling a
// pre-bound func and dispatching it allocate nothing, and neither do
// Timer.Reset (earlier, later, equal) and Timer.Stop.
func TestScheduleAllocationFree(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	fn := func() { n++ }
	tm := NewTimer(eng, fn)
	schedule := func() {
		for i := 0; i < 32; i++ {
			eng.AfterComp(units.Time(i%4), CompFabric, fn)
		}
		eng.Run(0)
	}
	timer := func() {
		tm.Reset(10)
		tm.Reset(20) // later: recorded only
		tm.Reset(5)  // earlier: a new entry
		tm.Reset(5)  // equal
		tm.Stop()
		tm.Reset(7) // re-arm after stop
		eng.Run(0)
	}
	schedule()
	timer()
	if a := testing.AllocsPerRun(100, schedule); a != 0 {
		t.Fatalf("AfterComp + dispatch allocate %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, timer); a != 0 {
		t.Fatalf("Timer.Reset/Stop allocate %.1f per run, want 0", a)
	}
	// AllocsPerRun makes one warm-up call beyond its 100 runs.
	if want := 102 * (32 + 1); n != want {
		t.Fatalf("fired %d events, want %d", n, want)
	}
}
