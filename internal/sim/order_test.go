package sim

import (
	"math/rand"
	"testing"

	"dcpsim/internal/units"
)

// refEngine is a reference model of the engine's dispatch semantics as a
// plain list of events: every schedule is its own event with a cancel flag,
// events fire in (at, seq) order, and a timer re-arm cancels its pending
// event and schedules a new one. The engine's typed queue and lazily
// re-armed timers must dispatch exactly as this model does.
type refEngine struct {
	now      units.Time
	seq      uint64
	evs      []*refEvent
	live     int
	executed uint64
}

type refEvent struct {
	at        units.Time
	seq       uint64
	fn        func()
	cancelled bool
}

func (r *refEngine) at(t units.Time, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.evs = append(r.evs, ev)
	r.live++
	return ev
}

func (r *refEngine) run() {
	for len(r.evs) > 0 {
		k := 0
		for i, ev := range r.evs {
			if ev.at < r.evs[k].at || (ev.at == r.evs[k].at && ev.seq < r.evs[k].seq) {
				k = i
			}
		}
		ev := r.evs[k]
		r.evs = append(r.evs[:k], r.evs[k+1:]...)
		if ev.cancelled {
			continue
		}
		r.live--
		r.now = ev.at
		r.executed++
		ev.fn()
	}
}

type refTimer struct {
	r  *refEngine
	ev *refEvent
	fn func()
}

func (t *refTimer) Reset(d units.Time) {
	t.Stop()
	t.ev = t.r.at(t.r.now+d, func() {
		t.ev = nil
		t.fn()
	})
}

func (t *refTimer) Stop() {
	if t.ev != nil {
		t.ev.cancelled = true
		t.r.live--
		t.ev = nil
	}
}

func (t *refTimer) Armed() bool { return t.ev != nil }

func (t *refTimer) Deadline() units.Time {
	if t.ev == nil {
		return 0
	}
	return t.ev.at
}

// orderEngine is the surface the randomized script drives, implemented by
// the engine and by the reference model.
type orderEngine interface {
	now() units.Time
	at(t units.Time, fn func())
	newTimer(fn func()) orderTimer
	run()
	live() int
	executed() uint64
}

type orderTimer interface {
	Reset(d units.Time)
	Stop()
	Armed() bool
	Deadline() units.Time
}

type simOrder struct{ e *Engine }

func (s simOrder) now() units.Time               { return s.e.Now() }
func (s simOrder) at(t units.Time, fn func())    { s.e.At(t, fn) }
func (s simOrder) newTimer(fn func()) orderTimer { return NewTimer(s.e, fn) }
func (s simOrder) run()                          { s.e.Run(0) }
func (s simOrder) live() int                     { return s.e.PendingActive() }
func (s simOrder) executed() uint64              { return s.e.Executed }

type refOrder struct{ r *refEngine }

func (s refOrder) now() units.Time               { return s.r.now }
func (s refOrder) at(t units.Time, fn func())    { s.r.at(t, fn) }
func (s refOrder) newTimer(fn func()) orderTimer { return &refTimer{r: s.r, fn: fn} }
func (s refOrder) run()                          { s.r.run() }
func (s refOrder) live() int                     { return s.r.live }
func (s refOrder) executed() uint64              { return s.r.executed }

// dispatch is one fired event as the script saw it.
type dispatch struct {
	label int
	at    units.Time
	live  int
}

// runOrderScript drives eng with a seeded random script and returns the
// dispatch trace. Every dispatched event draws its next operations from
// the same random stream, so any divergence in order changes the rest of
// the trace. Timer 0 is used only KickAt-style (the earliest requested
// deadline wins); the others are reset earlier, later and to an equal
// deadline, stopped and re-armed, including from inside their own Fn.
func runOrderScript(eng orderEngine, seed int64) []dispatch {
	rng := rand.New(rand.NewSource(seed))
	var trace []dispatch
	const budget = 300
	labels := 0
	timers := make([]orderTimer, 4)
	var act func(label int)
	schedule := func(t units.Time) {
		labels++
		l := labels
		eng.at(t, func() { act(l) })
	}
	act = func(label int) {
		trace = append(trace, dispatch{label: label, at: eng.now(), live: eng.live()})
		if len(trace) >= budget {
			return
		}
		now := eng.now()
		for k := rng.Intn(4); k > 0; k-- {
			tm := timers[1+rng.Intn(len(timers)-1)]
			switch rng.Intn(7) {
			case 0, 1: // plain event, often tied with others at one time
				schedule(now + units.Time(rng.Intn(4)))
			case 2: // earlier deadline
				if tm.Armed() && tm.Deadline() > now {
					tm.Reset(units.Time(rng.Int63n(int64(tm.Deadline() - now))))
				} else {
					tm.Reset(units.Time(rng.Intn(3)))
				}
			case 3: // later deadline
				d := units.Time(1 + rng.Intn(5))
				if tm.Armed() {
					d += tm.Deadline() - now
				}
				tm.Reset(d)
			case 4: // equal deadline
				if tm.Armed() {
					tm.Reset(tm.Deadline() - now)
				} else {
					tm.Reset(units.Time(rng.Intn(5)))
				}
			case 5:
				tm.Stop()
			case 6: // KickAt: earliest wins
				t := now + units.Time(rng.Intn(8))
				if k := timers[0]; !(k.Armed() && k.Deadline() <= t) {
					k.Reset(t - now)
				}
			}
		}
	}
	for i := range timers {
		label := -1 - i
		timers[i] = eng.newTimer(func() { act(label) })
	}
	for i := 0; i < 6; i++ {
		schedule(units.Time(rng.Intn(3)))
	}
	eng.run()
	return trace
}

func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		e := NewEngine(1)
		r := &refEngine{}
		got := runOrderScript(simOrder{e}, seed)
		want := runOrderScript(refOrder{r}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if e.Executed != r.executed {
			t.Fatalf("seed %d: Executed %d, reference %d", seed, e.Executed, r.executed)
		}
		if e.PendingActive() != 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: PendingActive %d Pending %d after drain", seed, e.PendingActive(), e.Pending())
		}
	}
}
