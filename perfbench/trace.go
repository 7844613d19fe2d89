package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// module. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends, so file IO never lands inside a measured interval. A nil
// tracer records nothing, which is the untraced configuration.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// spanTotal is the per-name aggregate the traced run prints.
type spanTotal struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // duration minus the time child spans cover
}

// totals aggregates spans by name in first-seen order. Children of one
// span never overlap (the benchmark is sequential), so a span's self time
// is its duration minus the sum of its children's durations.
func (t *tracer) totals() []spanTotal {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []spanTotal
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.End - s.Start
		out[j].Self += s.End - s.Start - child[i]
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event JSON format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. Each span
// is a complete ("X") event; the parent's name rides in args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func (t *tracer) encodeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		}
		if s.Parent >= 0 {
			ev.Args = map[string]string{"parent": t.spans[s.Parent].Name}
		}
		evs = append(evs, ev)
	}
	// Perfetto nests same-thread complete events by containment; a stable
	// start-time order keeps parents ahead of children that share a start.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// printTotals renders the span table of the traced run.
func printTotals(w io.Writer, tots []spanTotal) {
	fmt.Fprintf(w, "%-18s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, s := range tots {
		fmt.Fprintf(w, "%-18s %6d %12.6f %12.6f\n", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
}
