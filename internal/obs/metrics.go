package obs

import (
	"io"
	"math"
	"strconv"

	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// DefaultMetricsInterval is the probe cadence when none is configured.
const DefaultMetricsInterval = 10 * units.Microsecond

// Series is one sampled time series in columnar form. Samples line up with
// Metrics.Times; a series registered after sampling began is padded with
// NaN for the ticks it missed.
type Series struct {
	Name string
	fn   func() float64
	vals []float64
}

// Values returns the sampled values (NaN = not yet registered at that
// tick). The slice is the series' backing store; callers must not modify
// it.
func (s *Series) Values() []float64 { return s.vals }

// Metrics is a registry of gauges sampled at a fixed simulated-time
// cadence by a self-rescheduling probe event. The probe reschedules only
// while other events remain pending, so an observed run still terminates:
// the probe chain never keeps the event queue alive on its own.
//
// Like Tracer, a nil *Metrics no-ops on every method, and gauge functions
// must only read simulation state, never mutate it.
type Metrics struct {
	eng      *sim.Engine
	interval units.Time
	times    []units.Time
	series   []*Series
	byName   map[string]*Series
	started  bool

	// WallNanos, when set, supplies monotonic wall-clock nanoseconds for
	// the engine.wall_ms_per_sim_s self-profiling gauge. The obs package
	// never reads the host clock itself (detcheck); commands that want
	// wall-clock profiling inject it with their own lint allowance.
	WallNanos func() int64
}

// NewMetrics returns a registry sampling at the given cadence (0 or
// negative picks DefaultMetricsInterval).
func NewMetrics(eng *sim.Engine, interval units.Time) *Metrics {
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	return &Metrics{eng: eng, interval: interval, byName: make(map[string]*Series)}
}

// Interval returns the probe cadence.
func (m *Metrics) Interval() units.Time {
	if m == nil {
		return 0
	}
	return m.interval
}

// Gauge registers fn to be sampled each probe tick under name.
// Re-registering a name replaces its function (the existing samples stay).
func (m *Metrics) Gauge(name string, fn func() float64) {
	if m == nil {
		return
	}
	if s := m.byName[name]; s != nil {
		s.fn = fn
		return
	}
	s := &Series{Name: name, fn: fn}
	m.series = append(m.series, s)
	m.byName[name] = s
}

// RatePerSec registers a gauge that reports the per-second derivative of a
// cumulative counter fn between consecutive probe ticks.
func (m *Metrics) RatePerSec(name string, fn func() float64) {
	if m == nil {
		return
	}
	var last float64
	var lastAt units.Time
	primed := false
	eng := m.eng
	m.Gauge(name, func() float64 {
		now := eng.Now()
		v := fn()
		var r float64
		if primed && now > lastAt {
			r = (v - last) / (now - lastAt).Seconds()
		}
		last, lastAt, primed = v, now, true
		return r
	})
}

// ProfileEngine registers the engine self-profiling gauges: cumulative
// events fired and their rate, current and peak heap depth, cancelled-event
// churn, and — when WallNanos is injected — wall-clock milliseconds spent
// per simulated second.
func (m *Metrics) ProfileEngine() {
	if m == nil {
		return
	}
	eng := m.eng
	m.Gauge("engine.events_executed", func() float64 { return float64(eng.Executed) })
	m.RatePerSec("engine.events_per_sim_s", func() float64 { return float64(eng.Executed) })
	m.Gauge("engine.heap_depth", func() float64 { return float64(eng.Pending()) })
	m.Gauge("engine.max_heap_depth", func() float64 { return float64(eng.MaxHeapDepth) })
	m.Gauge("engine.cancelled_drops", func() float64 { return float64(eng.CancelledDrops) })
	if m.WallNanos != nil {
		wall := m.WallNanos
		var lastWall int64
		var lastAt units.Time
		primed := false
		m.Gauge("engine.wall_ms_per_sim_s", func() float64 {
			now := eng.Now()
			w := wall()
			var r float64
			if primed && now > lastAt {
				r = float64(w-lastWall) / 1e6 / (now - lastAt).Seconds()
			}
			lastWall, lastAt, primed = w, now, true
			return r
		})
	}
}

// Start schedules the first probe tick. Idempotent; call after the gauges
// that should see the first sample are registered (late registrations are
// NaN-padded).
func (m *Metrics) Start() {
	if m == nil || m.started {
		return
	}
	m.started = true
	m.eng.AfterComp(m.interval, sim.CompProbe, m.tick)
}

func (m *Metrics) tick() {
	m.times = append(m.times, m.eng.Now())
	for _, s := range m.series {
		for len(s.vals) < len(m.times)-1 {
			s.vals = append(s.vals, math.NaN())
		}
		s.vals = append(s.vals, s.fn())
	}
	// Reschedule only while other live work is pending: with this tick
	// already popped, PendingActive()==0 means everything left is stopped
	// timers or nothing at all — the probe would be keeping the simulation
	// alive by itself. Stop, so Engine.Run(0) still terminates at the last
	// real event rather than chasing a lingering stopped timer.
	if m.eng.PendingActive() > 0 {
		m.eng.AfterComp(m.interval, sim.CompProbe, m.tick)
	}
}

// Samples returns the number of probe ticks taken so far.
func (m *Metrics) Samples() int {
	if m == nil {
		return 0
	}
	return len(m.times)
}

// Times returns the tick timestamps. Callers must not modify the slice.
func (m *Metrics) Times() []units.Time {
	if m == nil {
		return nil
	}
	return m.times
}

// Series returns the registered series in registration order. Callers must
// not modify the slice.
func (m *Metrics) Series() []*Series {
	if m == nil {
		return nil
	}
	return m.series
}

// Lookup returns the named series, or nil.
func (m *Metrics) Lookup(name string) *Series {
	if m == nil {
		return nil
	}
	return m.byName[name]
}

// appendFloat renders v for CSV/JSON: NaN becomes empty/null, integers
// print without exponent, everything else in compact 'g' form.
func appendFloat(b []byte, v float64, nan string) []byte {
	if math.IsNaN(v) {
		return append(b, nan...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteCSV writes the sampled series as CSV: a time_us column followed by
// one column per series in registration order. Not-yet-registered samples
// render as empty cells.
func (m *Metrics) WriteCSV(w io.Writer) error {
	if m == nil {
		return nil
	}
	var b []byte
	b = append(b, "time_us"...)
	for _, s := range m.series {
		b = append(b, ',')
		b = append(b, s.Name...)
	}
	b = append(b, '\n')
	for i, t := range m.times {
		b = strconv.AppendFloat(b, t.Micros(), 'f', 3, 64)
		for _, s := range m.series {
			b = append(b, ',')
			if i < len(s.vals) {
				b = appendFloat(b, s.vals[i], "")
			}
		}
		b = append(b, '\n')
		if len(b) > 1<<16 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// WriteJSON writes the sampled series as one JSON object with a fixed
// field order: {"interval_us":…,"times_us":[…],"series":[{"name":…,
// "values":[…]},…]}. NaN samples render as null.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		return nil
	}
	var b []byte
	b = append(b, `{"interval_us":`...)
	b = strconv.AppendFloat(b, m.interval.Micros(), 'g', -1, 64)
	b = append(b, `,"times_us":[`...)
	for i, t := range m.times {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, t.Micros(), 'f', 3, 64)
	}
	b = append(b, `],"series":[`...)
	for si, s := range m.series {
		if si > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"values":[`...)
		for i := range m.times {
			if i > 0 {
				b = append(b, ',')
			}
			if i < len(s.vals) {
				b = appendFloat(b, s.vals[i], "null")
			} else {
				b = append(b, "null"...)
			}
		}
		b = append(b, "]}"...)
		if len(b) > 1<<16 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}
