// Package sim implements the discrete-event simulation engine: an event
// queue ordered by simulated time, cancellable timers, and a deterministic
// random source. Every experiment in this repository is driven by one
// Engine; ties in event time are broken by insertion order so that a given
// seed always produces the same run.
package sim

import (
	"math/rand"
	"strconv"
	"sync/atomic"

	"dcpsim/internal/units"
)

// Comp labels the component whose code a scheduled event runs — the unit
// the dispatch profiler attributes events and wall-time to. Every event
// carries a Comp stamped at scheduling time: the root scheduling sites
// (wire delivery, port serialization, NIC kicks, retransmission timers,
// DCQCN timers, fault plans, metrics probes, flow starts) tag themselves
// explicitly via AtComp/AfterComp or Timer.Comp; everything scheduled from
// inside a dispatched event inherits that event's component, so untagged
// nested scheduling stays causally attributed.
type Comp uint8

// The component taxonomy. CompOther is the zero value: an event scheduled
// outside any dispatch by untagged code (tests, ad-hoc drivers).
const (
	CompOther Comp = iota
	CompWorkload
	CompTransport
	CompFabric
	CompNIC
	CompCC
	CompTimer
	CompFaults
	CompProbe
	NumComps
)

func (c Comp) String() string {
	switch c {
	case CompOther:
		return "other"
	case CompWorkload:
		return "workload"
	case CompTransport:
		return "transport"
	case CompFabric:
		return "fabric"
	case CompNIC:
		return "nic"
	case CompCC:
		return "cc"
	case CompTimer:
		return "timer"
	case CompFaults:
		return "faults"
	case CompProbe:
		return "probe"
	default:
		return "comp(" + strconv.Itoa(int(c)) + ")"
	}
}

// Prof is the engine's dispatch profiler: per-component event counts and,
// when a wall clock is injected, per-component wall-nanosecond totals.
// Attach one with Engine.AttachProf before Run. The two halves have
// different determinism guarantees — Counts depend only on the seed and
// are byte-identical across hosts and runs; WallNs varies by host and is
// only populated when Wall is non-nil.
//
// The engine never reads the host clock itself (the detcheck contract);
// callers that want wall attribution inject Wall with their own lint
// allowance, exactly like obs.Metrics.WallNanos.
type Prof struct {
	// Wall, when non-nil, supplies monotonic wall-clock nanoseconds read
	// around every dispatched event. Nil keeps profiling counts-only and
	// fully deterministic.
	Wall func() int64
	// Counts tallies dispatched events per component.
	Counts [NumComps]uint64
	// WallNs accumulates wall nanoseconds spent inside dispatched events
	// per component (all zero when Wall is nil).
	WallNs [NumComps]int64
}

// Total returns the total dispatched events across all components.
func (p *Prof) Total() uint64 {
	var n uint64
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// entry is one queued event, stored by value in the engine's heap and
// ordered on (at, seq). A plain event carries fn and the component it is
// attributed to; a timer event carries tm instead, and fn and comp are read
// from the Timer when it fires (see Timer for the lazy re-arm rule).
type entry struct {
	at   units.Time
	seq  uint64
	fn   func()
	tm   *Timer
	comp Comp
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator.
//
// Ownership contract: an Engine (and the whole simulation hanging off it —
// topology, transports, collectors, sinks) belongs to exactly one goroutine
// for its entire lifetime. The parallel experiment runner exploits this:
// cells on different workers each own a private Engine, so no
// synchronization exists anywhere on the data path. The package keeps zero
// package-level mutable state for the same reason. Run enforces the
// contract cheaply with an atomic re-entrancy flag — two goroutines (or a
// re-entrant callback) driving the same Engine panic instead of silently
// interleaving event streams.
type Engine struct {
	now     units.Time
	seq     uint64
	q       []entry // binary min-heap on (at, seq)
	live    int     // pending events that can still fire
	rng     *rand.Rand
	stopped bool
	running atomic.Bool // guards Run against concurrent/re-entrant drivers

	// comp is the component of the event currently being dispatched; events
	// scheduled during dispatch inherit it. Between dispatches it is the
	// last dispatched component, which is irrelevant because the tagged root
	// sites cover all out-of-dispatch scheduling.
	comp Comp
	// prof, when attached, receives per-component dispatch accounting.
	prof *Prof

	// Executed counts events that have fired, for progress reporting.
	Executed uint64
	// CancelledDrops counts queue entries discarded from the head without
	// firing: the entry of a stopped timer, and an entry superseded when a
	// Reset moved its timer's deadline earlier. Lazy re-arms (a Reset to a
	// later or equal deadline) are not drops: they move the queued entry
	// and never reach the head as waste. Engine self-profiling samples it.
	CancelledDrops uint64
	// MaxHeapDepth is the high-water mark of the event queue, counting
	// entries that will be dropped.
	MaxHeapDepth int
	// MaxLive is the high-water mark of pending events that can still fire
	// — armed timers plus plain events.
	MaxLive int
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Rand returns the engine's random source. All stochastic choices in a
// simulation must come from here so runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute time t, attributed to the component
// currently dispatching (CompOther outside any dispatch). Scheduling in
// the past panics: it would silently reorder causality. A plain event
// cannot be cancelled; use a Timer for a deadline that may move or stop.
func (e *Engine) At(t units.Time, fn func()) {
	e.AtComp(t, e.comp, fn)
}

// AtComp schedules fn at absolute time t attributed to component c,
// overriding inheritance. The root scheduling sites (wire delivery, NIC
// kicks, fault plans, probes, flow starts) use this to anchor attribution;
// everything they transitively schedule inherits via At/After.
func (e *Engine) AtComp(t units.Time, c Comp, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.push(entry{at: t, seq: e.seq, fn: fn, comp: c})
	e.addLive()
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d units.Time, fn func()) {
	e.AtComp(e.now+d, e.comp, fn)
}

// AfterComp schedules fn d after the current time attributed to component c.
func (e *Engine) AfterComp(d units.Time, c Comp, fn func()) {
	e.AtComp(e.now+d, c, fn)
}

func (e *Engine) addLive() {
	e.live++
	if e.live > e.MaxLive {
		e.MaxLive = e.live
	}
}

// push inserts x into the heap.
func (e *Engine) push(x entry) {
	e.q = append(e.q, x)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	if len(q) > e.MaxHeapDepth {
		e.MaxHeapDepth = len(q)
	}
}

// replaceTop removes the root and inserts x in its place, bottom-up
// (Floyd): the hole left by the root sinks along the smaller children to a
// leaf, and x then rises from there. An entry taken from the back of the
// heap, or a re-armed timer's later deadline, usually belongs near the
// bottom, so this costs about one comparison per level where a top-down
// sift costs two.
func (e *Engine) replaceTop(x entry) {
	q := e.q
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes the root.
func (e *Engine) pop() {
	n := len(e.q) - 1
	last := e.q[n]
	e.q[n] = entry{} // release fn and tm to the GC
	e.q = e.q[:n]
	if n > 0 {
		e.replaceTop(last)
	}
}

// Comp returns the component of the event currently being dispatched.
func (e *Engine) Comp() Comp { return e.comp }

// AttachProf attaches (or, with nil, detaches) a dispatch profiler. The
// disabled path — no profiler attached — costs one nil check per dispatch
// and allocates nothing.
func (e *Engine) AttachProf(p *Prof) { e.prof = p }

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue is empty, until the
// clock would pass `until` (if until > 0), or until Stop is called. It
// returns the final clock value. A bounded run (until > 0) always ends
// with Now() == until unless Stop cut it short — including when the queue
// drains before `until`: the clock advances through the empty remainder,
// so callers scheduling relative to a bounded run's end (metrics probes,
// periodic samplers) see a consistent clock. An unbounded run ends at the
// last executed event; Stop leaves the clock at the stopping event.
func (e *Engine) Run(until units.Time) units.Time {
	if !e.running.CompareAndSwap(false, true) {
		panic("sim: concurrent Run on one Engine — an engine is owned by a single goroutine")
	}
	defer e.running.Store(false)
	e.stopped = false
	for len(e.q) > 0 && !e.stopped {
		top := &e.q[0]
		tm := top.tm
		if tm != nil && (top.seq != tm.qseq || !tm.armed) {
			// Superseded by an earlier deadline, or the timer was stopped.
			if top.seq == tm.qseq {
				tm.qseq = 0
			}
			e.pop()
			e.CancelledDrops++
			continue
		}
		if until > 0 && top.at > until {
			e.now = until
			return e.now
		}
		fn, comp, at := top.fn, top.comp, top.at
		if tm != nil {
			if tm.seq != top.seq {
				// The deadline moved later: re-queue under the seq Reset
				// reserved, exactly where cancel-then-push would have put
				// it. Nothing is dispatched.
				tm.qat, tm.qseq = tm.at, tm.seq
				e.replaceTop(entry{at: tm.at, seq: tm.seq, tm: tm})
				continue
			}
			tm.armed, tm.qseq = false, 0
			fn, comp = tm.Fn, tm.Comp
		}
		e.pop()
		e.live--
		e.now = at
		e.Executed++
		e.comp = comp
		if p := e.prof; p != nil {
			p.Counts[comp]++
			if p.Wall != nil {
				w0 := p.Wall()
				fn()
				p.WallNs[comp] += p.Wall() - w0
				continue
			}
		}
		fn()
	}
	if !e.stopped && until > 0 && e.now < until {
		e.now = until
	}
	return e.now
}

// Pending returns the number of entries still queued, including those that
// will be dropped (stopped or superseded timers).
func (e *Engine) Pending() int { return len(e.q) }

// PendingActive returns the number of queued events that can still fire —
// entries awaiting discard are excluded. Periodic self-rescheduling work
// (metrics probes) keys off this so a lingering stopped timer far in the
// future does not keep it alive.
func (e *Engine) PendingActive() int { return e.live }

// Timer is a restartable one-shot timer, the building block for
// retransmission timeouts and pacing, and the engine's only cancellable
// handle. The zero value is unusable; create timers with NewTimer.
//
// A Timer owns at most one live queue entry, keyed (qat, qseq). Reset
// always reserves a fresh sequence number, as cancel-then-push would, so
// the tie-break of every other event is unchanged. When the live entry is
// due no later than the new deadline, Reset only records the deadline; when
// that entry reaches the head, Run re-queues it under the reserved key.
// Because every key pushed after a pop is larger than the popped one, the
// re-queued entry sits exactly where a freshly pushed event would, so the
// dispatch order equals cancel-then-push. An earlier deadline pushes a new
// entry; the old one becomes an orphan that Run drops, as it drops the
// entry of a stopped timer. Reset and Stop allocate nothing.
type Timer struct {
	eng *Engine
	// Fn runs when the timer expires.
	Fn func()
	// Comp attributes the timer's expiry dispatch; NewTimer defaults it to
	// CompTimer so retransmission timeouts profile as timer work. Owners
	// with a more specific identity (DCQCN rate timers → CompCC, NDP pacer
	// → CompTransport, NIC pacing kicks → CompNIC) override it after
	// construction. It is read when the timer fires.
	Comp Comp

	armed bool
	at    units.Time // deadline, valid while armed
	seq   uint64     // sequence number Reset reserved for at
	qat   units.Time // key of the live queue entry
	qseq  uint64     // 0: no live entry
}

// NewTimer returns a timer bound to the engine, attributed to CompTimer.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, Fn: fn, Comp: CompTimer}
}

// Reset (re)arms the timer to fire d from now, replacing any earlier
// deadline. A negative d panics, like scheduling an event in the past.
func (t *Timer) Reset(d units.Time) {
	e := t.eng
	if d < 0 {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	if !t.armed {
		t.armed = true
		e.addLive()
	}
	t.at, t.seq = e.now+d, e.seq
	if t.qseq != 0 && t.qat <= t.at {
		return
	}
	t.qat, t.qseq = t.at, t.seq
	e.push(entry{at: t.at, seq: t.seq, tm: t})
}

// Stop disarms the timer if it is armed. Its queued entry is dropped when
// it reaches the head, unless a later Reset re-arms the timer first.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.eng.live--
	}
}

// Armed reports whether the timer has a pending deadline.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the absolute expiry time; valid only if Armed.
func (t *Timer) Deadline() units.Time {
	if !t.armed {
		return 0
	}
	return t.at
}
