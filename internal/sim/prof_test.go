package sim

import (
	"testing"

	"dcpsim/internal/units"
)

// TestCompInheritance checks the attribution contract: explicitly tagged
// events carry their component, events scheduled from inside a dispatch
// inherit the dispatching event's component, and out-of-dispatch untagged
// scheduling lands in CompOther.
func TestCompInheritance(t *testing.T) {
	eng := NewEngine(1)
	var p Prof
	eng.AttachProf(&p)

	// Untagged before any dispatch → CompOther.
	eng.At(1, func() {})
	// Tagged root that schedules two untagged children: both must inherit.
	eng.AtComp(2, CompFabric, func() {
		eng.After(1, func() {
			// Grandchild inherits transitively.
			eng.After(1, func() {})
		})
		eng.After(2, func() {})
	})
	// Tagged root of a different component, with an explicit override inside.
	eng.AtComp(3, CompNIC, func() {
		eng.AfterComp(1, CompProbe, func() {})
	})
	eng.Run(0)

	want := [NumComps]uint64{}
	want[CompOther] = 1
	want[CompFabric] = 4 // root + 2 children + 1 grandchild
	want[CompNIC] = 1
	want[CompProbe] = 1
	if p.Counts != want {
		t.Fatalf("counts = %v, want %v", p.Counts, want)
	}
	if got := p.Total(); got != 7 {
		t.Fatalf("Total() = %d, want 7", got)
	}
	if eng.Executed != 7 {
		t.Fatalf("Executed = %d, want 7", eng.Executed)
	}
}

// TestProfWallAttribution injects a fake monotonic clock and checks wall
// nanoseconds land on the dispatched event's component.
func TestProfWallAttribution(t *testing.T) {
	eng := NewEngine(1)
	var fake int64
	p := &Prof{Wall: func() int64 { fake += 5; return fake }}
	eng.AttachProf(p)

	eng.AtComp(1, CompCC, func() {})
	eng.AtComp(2, CompCC, func() {})
	eng.AtComp(3, CompFaults, func() {})
	eng.Run(0)

	// Each dispatch reads the clock twice (before/after), so each event
	// books exactly one +5 step.
	if p.WallNs[CompCC] != 10 {
		t.Fatalf("WallNs[CompCC] = %d, want 10", p.WallNs[CompCC])
	}
	if p.WallNs[CompFaults] != 5 {
		t.Fatalf("WallNs[CompFaults] = %d, want 5", p.WallNs[CompFaults])
	}
	if p.Counts[CompCC] != 2 || p.Counts[CompFaults] != 1 {
		t.Fatalf("counts = %v", p.Counts)
	}
}

// TestTimerComp: timers default to CompTimer; owners can retag (the DCQCN
// rate machine and NDP pacer do), and the tag survives Reset cycles.
func TestTimerComp(t *testing.T) {
	eng := NewEngine(1)
	var p Prof
	eng.AttachProf(&p)

	fired := 0
	tm := NewTimer(eng, func() { fired++ })
	tm.Reset(5)
	eng.Run(0)

	cc := NewTimer(eng, func() { fired++ })
	cc.Comp = CompCC
	cc.Reset(5)
	cc.Reset(7) // re-arm: the cancelled first deadline must not fire
	eng.Run(0)

	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if p.Counts[CompTimer] != 1 || p.Counts[CompCC] != 1 {
		t.Fatalf("counts = %v, want one CompTimer and one CompCC", p.Counts)
	}
}

// TestMaxLive: the live high-water mark tracks pending events that can
// still fire, net of stopped timers.
func TestMaxLive(t *testing.T) {
	eng := NewEngine(1)
	a := NewTimer(eng, func() {})
	a.Reset(1)
	eng.At(2, func() {})
	eng.At(3, func() {})
	if eng.MaxLive != 3 {
		t.Fatalf("MaxLive = %d, want 3", eng.MaxLive)
	}
	a.Stop()
	eng.At(4, func() {})
	// 3 live again after one stop + one add: high water still 3.
	if eng.MaxLive != 3 {
		t.Fatalf("MaxLive = %d, want 3 after stop+add", eng.MaxLive)
	}
	eng.Run(0)
	if eng.MaxLive != 3 {
		t.Fatalf("MaxLive = %d after run, want 3", eng.MaxLive)
	}
}

// TestProfDetachedIdentical: attaching a counts-only profiler must not
// change the simulation — same executed count, same clock, same event
// order (spot-checked via a recorded firing sequence).
func TestProfDetachedIdentical(t *testing.T) {
	run := func(p *Prof) (uint64, units.Time, []int) {
		eng := NewEngine(42)
		if p != nil {
			eng.AttachProf(p)
		}
		var order []int
		var chain func(i int)
		chain = func(i int) {
			order = append(order, i)
			if i < 20 {
				d := units.Time(eng.Rand().Intn(5) + 1)
				eng.After(d, func() { chain(i + 1) })
			}
		}
		eng.AtComp(1, CompWorkload, func() { chain(0) })
		end := eng.Run(0)
		return eng.Executed, end, order
	}
	e1, t1, o1 := run(nil)
	var p Prof
	e2, t2, o2 := run(&p)
	if e1 != e2 || t1 != t2 {
		t.Fatalf("profiled run diverged: executed %d vs %d, end %v vs %v", e1, e2, t1, t2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("order diverged at %d", i)
		}
	}
	if p.Total() != e2 {
		t.Fatalf("prof total %d != executed %d", p.Total(), e2)
	}
}

// TestCompString: every named component stringifies, and the fallback is
// stable for out-of-range values.
func TestCompString(t *testing.T) {
	seen := map[string]bool{}
	for c := CompOther; c < NumComps; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("comp %d: bad or duplicate name %q", c, s)
		}
		seen[s] = true
	}
	if got := Comp(200).String(); got != "comp(200)" {
		t.Fatalf("fallback = %q", got)
	}
}
