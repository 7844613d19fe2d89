package sim

import (
	"math/rand"
	"sort"
	"testing"

	"dcpsim/internal/units"
)

func TestRunInTimeOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []units.Time
	for _, d := range []units.Time{30, 10, 20, 5, 25} {
		d := d
		eng.After(d, func() { got = append(got, eng.Now()) })
	}
	eng.Run(0)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(100, func() { got = append(got, i) })
	}
	eng.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine(1)
	eng.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		eng.At(50, func() {})
	})
	eng.Run(0)
}

func TestCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := NewTimer(eng, func() { fired = true })
	tm.Reset(10)
	tm.Stop()
	eng.Run(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Armed() {
		t.Fatal("Armed() should report false after Stop")
	}
	// Stopping again, after the entry was discarded, must be safe.
	tm.Stop()
	if eng.PendingActive() != 0 || eng.Pending() != 0 {
		t.Fatalf("PendingActive=%d Pending=%d after drain", eng.PendingActive(), eng.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		eng.At(units.Time(i)*units.Microsecond, func() { count++ })
	}
	eng.Run(5 * units.Microsecond)
	if count != 5 {
		t.Fatalf("ran %d events before deadline, want 5", count)
	}
	if eng.Now() != 5*units.Microsecond {
		t.Fatalf("clock at %v, want 5us", eng.Now())
	}
	eng.Run(0)
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		eng.At(units.Time(i), func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.Run(0)
	if count != 3 {
		t.Fatalf("Stop did not halt the loop: ran %d", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	eng := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			eng.After(units.Nanosecond, recurse)
		}
	}
	eng.After(0, recurse)
	eng.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if eng.Now() != 99*units.Nanosecond {
		t.Fatalf("clock = %v", eng.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		eng := NewEngine(42)
		rng := eng.Rand()
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(eng.Now()))
			if len(trace) < 200 {
				eng.After(units.Time(rng.Intn(1000)+1), step)
			}
		}
		eng.After(0, step)
		eng.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandomizedOrderProperty(t *testing.T) {
	// Schedule events at random times; execution order must equal the
	// sorted order of (time, insertion seq).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		eng := NewEngine(1)
		type key struct {
			at  units.Time
			seq int
		}
		var keys []key
		var got []key
		for i := 0; i < 200; i++ {
			k := key{units.Time(rng.Intn(50)), i}
			keys = append(keys, k)
			k2 := k
			eng.At(k.at, func() { got = append(got, k2) })
		}
		eng.Run(0)
		sort.SliceStable(keys, func(i, j int) bool { return keys[i].at < keys[j].at })
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("trial %d: order mismatch at %d", trial, i)
			}
		}
	}
}

func TestTimerResetAndStop(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	tm := NewTimer(eng, func() { fired++ })
	tm.Reset(10 * units.Microsecond)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	if tm.Deadline() != 10*units.Microsecond {
		t.Fatalf("deadline = %v", tm.Deadline())
	}
	// Re-arm before expiry: only the later deadline fires.
	eng.After(5*units.Microsecond, func() { tm.Reset(20 * units.Microsecond) })
	eng.Run(0)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if eng.Now() != 25*units.Microsecond {
		t.Fatalf("fired at %v, want 25us", eng.Now())
	}
	if tm.Armed() {
		t.Fatal("timer should be disarmed after firing")
	}
	tm.Stop() // stopping a disarmed timer is a no-op
	if tm.Deadline() != 0 {
		t.Fatal("deadline of unarmed timer should be 0")
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := NewTimer(eng, func() { fired = true })
	tm.Reset(10)
	tm.Stop()
	eng.Run(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestPendingAndExecuted(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 5; i++ {
		eng.At(units.Time(i), func() {})
	}
	if eng.Pending() != 5 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	eng.Run(0)
	if eng.Pending() != 0 || eng.Executed != 5 {
		t.Fatalf("pending=%d executed=%d", eng.Pending(), eng.Executed)
	}
}

func TestBoundedRunAdvancesClockOnEarlyDrain(t *testing.T) {
	// A bounded run whose queue drains early must still end with
	// Now() == until, so periodic work scheduled relative to the run's end
	// (metrics probes, samplers) sees a consistent clock.
	eng := NewEngine(1)
	eng.At(2*units.Microsecond, func() {})
	eng.Run(10 * units.Microsecond)
	if eng.Now() != 10*units.Microsecond {
		t.Fatalf("clock at %v after early drain, want 10us", eng.Now())
	}
	// An empty bounded run advances too.
	eng.Run(25 * units.Microsecond)
	if eng.Now() != 25*units.Microsecond {
		t.Fatalf("clock at %v after empty run, want 25us", eng.Now())
	}
	// Stop still cuts the advance short: the clock stays at the stopping
	// event.
	eng.At(30*units.Microsecond, func() { eng.Stop() })
	eng.Run(50 * units.Microsecond)
	if eng.Now() != 30*units.Microsecond {
		t.Fatalf("clock at %v after Stop, want 30us", eng.Now())
	}
	// An unbounded run does not advance past its last event.
	eng.At(35*units.Microsecond, func() {})
	eng.Run(0)
	if eng.Now() != 35*units.Microsecond {
		t.Fatalf("clock at %v after unbounded run, want 35us", eng.Now())
	}
}

func TestSelfProfilingCounters(t *testing.T) {
	eng := NewEngine(1)
	for i := 1; i <= 4; i++ {
		eng.At(units.Time(i)*units.Microsecond, func() {})
	}
	stopped := NewTimer(eng, func() { t.Fatal("stopped timer fired") })
	stopped.Reset(5 * units.Microsecond)
	if eng.PendingActive() != 5 {
		t.Fatalf("PendingActive = %d, want 5", eng.PendingActive())
	}
	stopped.Stop()
	stopped.Stop() // double stop must not double-count
	if eng.PendingActive() != 4 {
		t.Fatalf("PendingActive = %d after stop, want 4", eng.PendingActive())
	}
	if eng.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 (stopped timer's entry still queued)", eng.Pending())
	}
	if eng.MaxHeapDepth != 5 {
		t.Fatalf("MaxHeapDepth = %d, want 5", eng.MaxHeapDepth)
	}
	eng.Run(0)
	if eng.CancelledDrops != 1 {
		t.Fatalf("CancelledDrops = %d, want 1", eng.CancelledDrops)
	}
	if eng.Executed != 4 {
		t.Fatalf("Executed = %d, want 4", eng.Executed)
	}
	if eng.MaxHeapDepth != 5 {
		t.Fatalf("MaxHeapDepth moved to %d", eng.MaxHeapDepth)
	}
}
