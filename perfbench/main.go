// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator for a fixed host-time budget, checks that
// every result is correct, and prints every metric by name with its unit;
// the last line of its output is one JSON object.
//
//	go run . --workload websearch_dcp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced iterations and reports the per-layer
// metrics, the span table and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool       // small topologies and inputs, for the smoke tests
	check    bool       // attach the flight checker and the delivery count
	horizon  units.Time // overrides the simulated-time horizon when > 0
	out      string     // directory for span files and run directories
	runDir   string     // campaign run directory, under out
}

// metricDef is a reported metric. Clock says whether a time is host time
// (this machine's wall clock) or simulated time (the modelled fabric's).
type metricDef struct {
	name, unit, clock string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "host"},
	{"setup_s", "s", "host"},
	{"sim_pkts_per_s", "1/s", "host"},
	{"live_heap_mb", "MB", "host"},
	{"peak_rss_mb", "MB", "host"},
	{"slowdown_p50", "ratio", "simulated"},
	{"slowdown_tail", "ratio", "simulated"},
	{"done_frac", "ratio", "simulated"},
}

var perLayer = []metricDef{
	{"sim.events", "count", ""},
	{"sim.ns_per_event", "ns", "host"},
	{"sim.max_heap_depth", "count", ""},
	{"sim.max_live", "count", ""},
	{"sim.cancelled_drops", "count", ""},
	{"sim.cancelled_frac", "ratio", ""},
	{"sim.events_per_pkt", "ratio", ""},
	{"sim.self_s", "s", "host"},
	{"runtime.alloc_mb", "MB", ""},
	{"runtime.alloc_b_per_event", "B", ""},
	{"runtime.gc_cycles", "count", ""},
	{"runtime.gc_pause_ms", "ms", "host"},
	{"fabric.pkt_hops", "count", ""},
	{"fabric.busy_s", "s", "host"},
	{"fabric.events", "count", ""},
	{"nic.busy_s", "s", "host"},
	{"nic.events", "count", ""},
	{"fabric.trimmed", "count", ""},
	{"fabric.ho_enqueued", "count", ""},
	{"fabric.dropped_ho", "count", ""},
	{"fabric.dropped_data", "count", ""},
	{"fabric.max_buf_bytes", "B", ""},
	{"fabric.trims_per_pkt", "ratio", ""},
	{"transport.data_pkts", "count", ""},
	{"transport.retrans_pkts", "count", ""},
	{"transport.useful_frac", "ratio", ""},
	{"transport.timeouts", "count", ""},
	{"transport.ho_triggers", "count", ""},
	{"transport.state_bytes", "B", ""},
	{"timer.busy_s", "s", "host"},
	{"cc.events", "count", ""},
	{"topo.build_s", "s", "host"},
	{"topo.install_s", "s", "host"},
	{"topo.live_mb", "MB", ""},
	{"topo.links", "count", ""},
	{"workload.gen_s", "s", "host"},
	{"workload.flows", "count", ""},
	{"stats.schedule_s", "s", "host"},
	{"stats.collect_s", "s", "host"},
	{"pool.cpu_util", "ratio", "host"},
	{"campaign.parse_s", "s", "host"},
	{"campaign.compile_s", "s", "host"},
	{"campaign.run_s", "s", "host"},
	{"campaign.units", "count", ""},
	{"campaign.bundle_bytes", "B", ""},
	{"flight.violations", "count", ""},
	{"trace.overhead_s", "s", "host"},
	{"trace.overhead_frac", "ratio", "host"},
}

// spanMetrics maps span names to the per-layer metric holding their
// duration in one iteration.
var spanMetrics = map[string]string{
	"workload.gen":     "workload.gen_s",
	"topo.build":       "topo.build_s",
	"topo.install":     "topo.install_s",
	"stats.schedule":   "stats.schedule_s",
	"collect":          "stats.collect_s",
	"campaign.parse":   "campaign.parse_s",
	"campaign.compile": "campaign.compile_s",
	"campaign.run":     "campaign.run_s",
}

// series holds the samples of each metric across iterations; a metric's
// reported value is the median of its samples.
type series map[string][]float64

func (s series) set(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 { return median(s[name]) }

func (s series) min(name string) float64 {
	v := s[name]
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, measures the workload and prints the report to stdout.
// It returns the process exit code: 0 only when every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var size string
	var horizonUs float64
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&size, "size", "full", "full, or tiny for smoke tests")
	fs.Float64Var(&horizonUs, "horizon-us", 0, "simulated-time horizon override in µs (0 = workload default)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and run directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(o.workload)
	if !ok && o.workload != legacyWorkload {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if (traceFlag != 0 && traceFlag != 1) || (size != "full" && size != "tiny") || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --size full or tiny, --seconds a positive number")
		return 2
	}
	o.trace, o.tiny = traceFlag == 1, size == "tiny"
	o.horizon = units.Scale(units.Microsecond, horizonUs)
	o.runDir = filepath.Join(o.out, fmt.Sprintf("%s-%d-run", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.runDir)

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d size=%s gomaxprocs=%d\n",
		o.workload, o.seed, o.seconds, traceFlag, size, procs)
	var res jsonResult
	var err error
	if o.workload == legacyWorkload {
		res, err = measureLegacy(o, stdout)
	} else {
		res, err = measure(def, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload: a fixed number of set-ups for the set-up
// time and live heap, then iterations of set-up, run and collection until
// the time budget is spent. Every iteration simulates the same inputs, so
// each must produce the same digest.
//
// Gated host times are calibrated (see calib.go): each sample is scaled by
// refNominal over the reference timed nearest to it, and the median of the
// scaled samples is reported.
func measure(def workloadDef, o options, w io.Writer) (jsonResult, error) {
	start := time.Now()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// raw holds host times as measured, including the reference timings
	// ("ref"). near holds, for each raw host-time sample, the reference
	// time it is calibrated by, or 0 for the run's median reference time.
	raw, near, heaps, layers := series{}, series{}, series{}, series{}
	ref := newReference(def.cores)
	reference := func(n int) float64 {
		var v []float64
		for range n {
			v = append(v, ref.time())
		}
		raw["ref"] = append(raw["ref"], v...)
		return median(v)
	}
	timed := func(name string, d time.Duration, nearRef float64) {
		raw.set(name, d.Seconds())
		near.set(name, nearRef)
	}
	var problems []string

	for i := 0; i < def.setupReps; i++ {
		before := liveHeap()
		inst := def.make(o.seed, o)
		r0 := reference(1)
		t0 := time.Now()
		inst.setup(nil)
		d := time.Since(t0)
		timed("setup_s", d, (r0+reference(1))/2)
		// The difference cancels heap the process holds anyway, such as
		// the runtime's own lazily built tables, which vary between runs.
		heaps.set("live_heap_mb", liveHeap()-before)
		runtime.KeepAlive(inst)
	}

	var first *outcome
	var longest time.Duration
	for it := 0; ; it++ {
		iterStart := time.Now()
		isTraced := o.trace && it%2 == 1
		var itr *tracer
		var prof *sim.Prof
		mark := 0
		if isTraced {
			itr, mark = tr, len(tr.spans)
			prof = &sim.Prof{Wall: wallClock(start)}
		}
		refBefore := reference(4)
		runtime.GC()
		inst := def.make(o.seed, o)
		root := itr.begin("iteration")
		t0 := time.Now()
		inst.setup(itr)
		setupD := time.Since(t0)
		var m0, m1 runtime.MemStats
		if isTraced {
			runtime.ReadMemStats(&m0)
		}
		// Untraced runs time the reference between slices of the run, so
		// each is calibrated by the host's speed while it ran; the pauses
		// are not counted.
		var pause func()
		var during []float64
		var paused time.Duration
		if !isTraced {
			pause = func() {
				t := time.Now()
				during = append(during, reference(1))
				paused += time.Since(t)
			}
		}
		t1 := time.Now()
		runSpan := itr.begin("run")
		inst.run(itr, prof, pause)
		itr.end(runSpan)
		runD := time.Since(t1) - paused
		if isTraced {
			runtime.ReadMemStats(&m1)
		}
		collect := itr.begin("collect")
		oc := inst.collect(itr)
		itr.end(collect)
		itr.end(root)

		if first == nil {
			first = &oc
		}
		if oc.digest != first.digest || oc.events != first.events {
			problems = append(problems, fmt.Sprintf("iteration %d (traced=%t): digest %.16s and %d events differ from iteration 0's %.16s and %d",
				it, isTraced, oc.digest, oc.events, first.digest, first.events))
		}
		if isTraced {
			timed("traced_wall_s", runD, 0)
			inst.layers(layers)
			spans := spanDurations(tr.spans[mark:])
			for name, d := range spans {
				if m, ok := spanMetrics[name]; ok {
					layers.set(m, d.Seconds())
				}
			}
			if run := spans["run"]; run > 0 {
				var busy int64
				for _, ns := range prof.WallNs {
					busy += ns
				}
				if busy > 0 { // campaign_grid's cells run without this profiler
					layers.set("sim.self_s", (run - time.Duration(busy)).Seconds())
				}
			}
			alloc := float64(m1.TotalAlloc - m0.TotalAlloc)
			layers.set("runtime.alloc_mb", alloc/(1<<20))
			layers.set("runtime.alloc_b_per_event", ratio(alloc, float64(oc.events)))
			layers.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
			layers.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		} else {
			timed("setup_s", setupD, refBefore)
			timed("wall_s", runD, median(during))
		}
		if oc.failed() > 0 {
			break // the verdict is in; more iterations only repeat it
		}
		// Stop once the minimum is met and another iteration as long as
		// the longest so far would overrun the budget.
		if d := time.Since(iterStart); d > longest {
			longest = d
		}
		enough := len(raw["wall_s"]) >= minIterations && (!o.trace || len(raw["traced_wall_s"]) >= 1)
		if enough && (time.Since(start)+longest).Seconds() > o.seconds {
			break
		}
	}

	// peak_rss_mb covers the timed iterations only: the checked set-up
	// below keeps per-PSN state that no timed iteration holds.
	rss := peakRSS()
	oc := *first
	if !def.checked && first.failed() == 0 && len(problems) == 0 {
		// One more set-up, untimed, with the flight checker and the
		// delivery count attached. They leave the run bit-identical, so
		// it must reproduce the digest of the timed iterations.
		co := o
		co.check = true
		inst := def.make(o.seed, co)
		inst.setup(nil)
		inst.run(nil, nil, nil)
		cc := inst.collect(nil)
		if cc.digest != first.digest || cc.events != first.events {
			problems = append(problems, fmt.Sprintf("checked set-up: digest %.16s and %d events differ from iteration 0's %.16s and %d",
				cc.digest, cc.events, first.digest, first.events))
		}
		oc.violations, oc.delivery = cc.violations, cc.delivery
		verdict := "every flow's distinct delivered bytes equal its size"
		if cc.delivery != "" {
			verdict = cc.delivery
		}
		fmt.Fprintf(w, "checked set-up: %d flight-checker violations; %s\n", cc.violations, verdict)
	}
	// calibrated is the median of a host time's samples, each scaled to
	// the reference's nominal speed.
	refMedian := raw.median("ref")
	calibrated := func(name string) float64 {
		var v []float64
		for i, d := range raw[name] {
			r := near[name][i]
			if r == 0 {
				r = refMedian
			}
			v = append(v, d*refNominal/r)
		}
		return median(v)
	}
	fmt.Fprintf(w, "iterations: %d untraced, %d traced; set-ups timed: %d\n",
		len(raw["wall_s"]), len(raw["traced_wall_s"]), len(raw["setup_s"]))
	fmt.Fprintf(w, "reference (%d copies at once): median %.6g s over %d timings; the run's median scales host times by %.4f\n",
		len(ref.copies), refMedian, len(raw["ref"]), refNominal/refMedian)
	for _, n := range []string{"wall_s", "setup_s"} {
		fmt.Fprintf(w, "%s raw: median %.6g min %.6g of %s\n", n, raw.median(n), raw.min(n), fmtSamples(raw[n]))
	}
	fmt.Fprintf(w, "live_heap_mb samples: %s\n", fmtSamples(heaps["live_heap_mb"]))
	fmt.Fprintf(w, "results digest: sha256:%s over %d flows\n", oc.digest, oc.attempted)
	fmt.Fprintf(w, "engine events: %d\n", oc.events)

	failed := oc.failed()
	if oc.unfinished > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d flows unfinished at the horizon", oc.unfinished, oc.attempted))
	}
	if oc.violations > 0 {
		problems = append(problems, fmt.Sprintf("%d flight-checker violations", oc.violations))
	}
	for _, e := range oc.expect {
		problems = append(problems, "expectation failed: "+e)
	}
	if oc.delivery != "" {
		problems = append(problems, oc.delivery)
	}
	attempted := max(oc.attempted, 1)
	if failed == 0 && len(problems) > 0 {
		failed = 1
	}
	failFrac := float64(failed) / float64(attempted)
	fmt.Fprintf(w, "fail_frac: %d/%d = %g\n", failed, attempted, failFrac)
	for _, p := range problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}

	wall := calibrated("wall_s")
	values := map[string]float64{
		"wall_s":         wall,
		"setup_s":        calibrated("setup_s"),
		"sim_pkts_per_s": ratio(float64(oc.pkts), wall),
		"live_heap_mb":   heaps.median("live_heap_mb"),
		"peak_rss_mb":    rss,
		"slowdown_p50":   oc.slowdown(50),
		"slowdown_tail":  oc.slowdown(def.tailPct),
		"done_frac":      1 - math.Min(1, failFrac),
	}
	beyond := int(float64(oc.samples) * (1 - def.tailPct/100))
	fmt.Fprintf(w, "slowdown_tail is p%g over %d finished flows (%d beyond it)\n", def.tailPct, oc.samples, beyond)

	res := jsonResult{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	printMetrics(w, "end-to-end", endToEnd, values)
	if !o.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = jsonMetric{Value: values[d.name], Unit: d.unit}
		}
		return res, nil
	}

	// Untraced iterations only: the traced ones carry the profiler's clock.
	layers.set("sim.ns_per_event", ratio(raw.median("wall_s")*1e9, float64(oc.events)))
	tw := calibrated("traced_wall_s")
	layers.set("trace.overhead_s", tw-wall)
	layers.set("trace.overhead_frac", ratio(tw-wall, wall))
	lv := map[string]float64{}
	for _, d := range perLayer {
		lv[d.name] = layers.median(d.name)
		res.Metrics[d.name] = jsonMetric{Value: lv[d.name], Unit: d.unit}
	}
	printMetrics(w, "per-layer", perLayer, lv)
	fmt.Fprintf(w, "tracing overhead: traced wall_s %.6f - untraced wall_s %.6f = %.6f s\n", tw, wall, tw-wall)
	fmt.Fprintln(w, "spans (all traced iterations):")
	printTotals(w, tr.totals())
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return res, fmt.Errorf("write span file: %w", err)
	}
	fmt.Fprintf(w, "span file (Perfetto/chrome://tracing): %s\n", path)
	return res, nil
}

// minIterations is the fewest untraced iterations a run times, however
// long each takes, so wall_s is always a median of several.
const minIterations = 3

// spanDurations sums span durations by name.
func spanDurations(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

func fmtSamples(v []float64) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}

func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, d := range defs {
		clock := ""
		if d.clock != "" {
			clock = "(" + d.clock + ")"
		}
		fmt.Fprintf(w, "  %-26s %16.6g %-6s %s\n", d.name, values[d.name], d.unit, clock)
	}
}

// wallClock is the injected clock of the dispatch profiler: monotonic
// nanoseconds since the benchmark started.
func wallClock(epoch time.Time) func() int64 {
	return func() int64 { return int64(time.Since(epoch)) }
}

// liveHeap forces a collection and returns the heap still in use, in MB.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSS is the process's peak resident set size, in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
