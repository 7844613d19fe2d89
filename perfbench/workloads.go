package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"dcpsim/internal/campaign"
	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/obs"
	"dcpsim/internal/obs/flight"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// instance is one set-up of a workload: everything one simulation needs,
// built from the seed. The benchmark drives it through set-up, one run and
// collection, then drops it.
type instance interface {
	// setup generates the inputs and builds the simulation.
	setup(tr *tracer)
	// run executes the simulation; prof, when non-nil, is attached to
	// every engine the run drives. When pause is non-nil, a workload that
	// can stop its simulation part-way calls it between slices of the
	// run; the results are the same as without pauses.
	run(tr *tracer, prof *sim.Prof, pause func())
	// collect checks the results and digests them.
	collect(tr *tracer) outcome
	// layers adds the per-layer counts of the finished run to m.
	layers(m series)
}

// outcome is what one run produced: the simulated results, which depend
// only on the seed, and the correctness verdict.
type outcome struct {
	attempted  int   // flows offered
	unfinished int   // flows not done at the horizon
	violations int64 // flight-recorder invariant violations
	expect     []string
	delivery   string // non-empty when a flow's delivered bytes differ from its size

	// slowdown returns the p-th percentile of the finished flows'
	// slowdowns (simulated FCT over ideal FCT) out of samples values.
	slowdown func(p float64) float64
	samples  int
	pkts     int64 // data-packet transmissions: first sends plus retransmissions
	events   uint64
	digest   string
}

// failed counts failures against attempted flows: unfinished flows,
// checker violations and campaign expectation failures.
func (o outcome) failed() int {
	n := o.unfinished + int(o.violations) + len(o.expect)
	if o.delivery != "" && n == 0 {
		n = 1
	}
	return n
}

// workloadDef names a workload and how to instantiate it.
type workloadDef struct {
	name string
	// tailPct is the slowdown percentile reported as slowdown_tail: the
	// highest one with at least ten samples beyond it at full size.
	tailPct float64
	// setupReps is how many set-ups the run times, besides those of its
	// iterations, so the set-up median rests on enough samples.
	setupReps int
	// cores is how many cores the run phase keeps busy.
	cores int
	// checked says every iteration already runs the flight checker, so
	// the run needs no separate checked set-up.
	checked bool
	make    func(seed int64, o options) instance
}

var workloads = []workloadDef{
	{name: "websearch_dcp", tailPct: 90, setupReps: 100, cores: 1, make: newWebSearch},
	{name: "incast_dcp", tailPct: 95, setupReps: 100, cores: 1, make: newIncast},
	{name: "mice1k_irn", tailPct: 99, setupReps: 24, cores: 1, make: newMice},
	{name: "campaign_grid", tailPct: 95, setupReps: 100, cores: gridWorkers, checked: true, make: newGrid},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- CLOS workloads: one engine goroutine each ----

// closSpec is a CLOS topology, a scheme and a flow generator.
type closSpec struct {
	scheme                       exp.Scheme
	leaves, spines, hostsPerLeaf int
	gen                          func(rng *rand.Rand, hosts []packet.NodeID, rate units.Rate) []*workload.Flow
	horizon                      units.Time
}

type closInstance struct {
	spec       closSpec
	seed       int64
	check      bool // attach the flight checker and the delivery count
	flows      []*workload.Flow
	s          *exp.Sim
	unfinished int
	prof       *sim.Prof
	topoMB     float64 // live heap the topology and transports add
	checker    *flight.Checker
	delivered  *deliveryCount
}

func newWebSearch(seed int64, o options) instance {
	spec := closSpec{scheme: exp.SchemeDCP(false), leaves: 16, spines: 16, hostsPerLeaf: 16}
	count := 160 // about 270 MB offered
	if o.tiny {
		spec.leaves, spec.spines, spec.hostsPerLeaf = 4, 4, 4
		count = 8
	}
	spec.gen = func(rng *rand.Rand, hosts []packet.NodeID, rate units.Rate) []*workload.Flow {
		return stratifiedPoisson(rng, workload.PoissonConfig{
			Load: 0.5, Hosts: hosts, HostRate: rate, Dist: workload.WebSearch(),
			Count: count, Class: "bg", BaseID: 1,
		})
	}
	return newClos(spec, seed, o)
}

// newIncast is the Fig 2/16 setting without congestion control: repeated
// 128-to-1 incasts over a light WebSearch background. The incasts start
// incastGap apart so they never overlap: overlapping incasts cost several
// times more host time, which would make the work of a run depend on the
// seed. Senders send 16 KB, not the figures' 64 KB: one 64 KB incast costs
// about six host seconds, so too few repeats fit in a run for a steady
// fastest time.
func newIncast(seed int64, o options) instance {
	spec := closSpec{scheme: exp.SchemeDCP(false), leaves: 16, spines: 16, hostsPerLeaf: 16}
	fanin, events, bg := 128, 4, 20
	if o.tiny {
		spec.leaves, spec.spines, spec.hostsPerLeaf = 4, 4, 4
		fanin, events, bg = 8, 2, 2
	}
	spec.gen = func(rng *rand.Rand, hosts []packet.NodeID, rate units.Rate) []*workload.Flow {
		flows := stratifiedPoisson(rng, workload.PoissonConfig{
			Load: 0.02, Hosts: hosts, HostRate: rate, Dist: workload.WebSearch(),
			Count: bg, Class: "bg", BaseID: 1,
		})
		for e := 0; e < events; e++ {
			flows = append(flows, workload.GenerateIncast(rng, workload.IncastConfig{
				Load: 0.1, Fanin: fanin, FlowSize: 16 << 10, Hosts: hosts, HostRate: rate,
				Events: 1, Start: units.Mul(incastGap, int64(e)), Class: "incast",
				BaseID: 1<<32 + uint64(e)<<16,
			})...)
		}
		return flows
	}
	return newClos(spec, seed, o)
}

// incastGap separates incast starts; one 128-to-1 incast of 16 KB drains
// in about 120 µs of simulated time.
const incastGap = 200 * units.Microsecond

// miceDist is the WebSearch distribution below 200 KB, renormalised: the
// short flows that make up 60% of WebSearch arrivals.
func miceDist() *workload.SizeDist {
	return workload.NewSizeDist(
		[]float64{1e3, 1e4, 2e4, 3e4, 5e4, 8e4, 2e5},
		[]float64{0, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.53 / 0.6, 1.0},
	)
}

func newMice(seed int64, o options) instance {
	spec := closSpec{scheme: exp.SchemeIRN(fabric.LBECMP, false), leaves: 64, spines: 64, hostsPerLeaf: 16}
	count := 1500
	if o.tiny {
		spec.leaves, spec.spines, spec.hostsPerLeaf = 8, 8, 4
		count = 200
	}
	spec.gen = func(rng *rand.Rand, hosts []packet.NodeID, rate units.Rate) []*workload.Flow {
		return stratifiedPoisson(rng, workload.PoissonConfig{
			Load: 0.3, Hosts: hosts, HostRate: rate, Dist: miceDist(),
			Count: count, Class: "mice", BaseID: 1,
		})
	}
	return newClos(spec, seed, o)
}

func newClos(spec closSpec, seed int64, o options) *closInstance {
	spec.horizon = 100 * units.Millisecond
	if o.horizon > 0 {
		spec.horizon = o.horizon
	}
	return &closInstance{spec: spec, seed: seed, check: o.check}
}

// stratifiedPoisson draws Poisson arrivals and endpoints as
// workload.GeneratePoisson does, but gives the flows the distribution's
// Count evenly spaced quantiles, in an order drawn from the seed, instead
// of independent sizes. Independent draws from a heavy tail made the
// offered bytes and the flow count of a fixed-size run swing with the seed
// (a single 30 MB WebSearch flow is 17 mean flows), and host time per
// packet grows with the flow count; with fixed quantiles every seed offers
// the same sizes.
func stratifiedPoisson(rng *rand.Rand, cfg workload.PoissonConfig) []*workload.Flow {
	flows := workload.GeneratePoisson(rng, cfg)
	for i, j := range rng.Perm(len(flows)) {
		u := (float64(j) + 0.5) / float64(len(flows))
		flows[i].Size = cfg.Dist.Sample(rand.New(constSource(u * (1 << 63))))
	}
	return flows
}

// constSource makes a rand.Rand whose Float64 is the given fraction of
// 2^63, so SizeDist.Sample returns the size at that quantile.
type constSource int64

func (s constSource) Int63() int64 { return int64(s) }
func (constSource) Seed(int64)     {}

func (c *closInstance) setup(tr *tracer) {
	spec := c.spec
	cfg := topo.DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = spec.leaves, spec.spines, spec.hostsPerLeaf
	cfg.Switch = exp.SwitchConfigFor(spec.scheme)
	hosts := make([]packet.NodeID, spec.leaves*spec.hostsPerLeaf)
	for i := range hosts {
		hosts[i] = packet.NodeID(i) // topo.Clos numbers hosts first
	}
	rng := rand.New(rand.NewSource(c.seed))
	tr.wrap("workload.gen", func() { c.flows = spec.gen(rng, hosts, cfg.HostRate) })
	var base float64
	if tr != nil { // traced set-ups only: the forced GCs would distort setup_s
		base = liveHeap()
	}
	install := -1
	c.s = exp.NewSim(c.seed, spec.scheme, func(eng *sim.Engine) *topo.Network {
		var net *topo.Network
		tr.wrap("topo.build", func() { net = topo.Clos(eng, cfg) })
		install = tr.begin("topo.install") // NewSim installs transports next
		return net
	})
	tr.end(install)
	if tr != nil {
		c.topoMB = liveHeap() - base
	}
	tr.wrap("stats.schedule", func() { c.s.ScheduleFlows(c.flows) })
}

func (c *closInstance) run(tr *tracer, prof *sim.Prof, pause func()) {
	if c.check {
		// The sinks consume the event stream online, as campaign cells
		// do, and leave the run bit-identical to an unchecked one.
		t := obs.NewTracer()
		t.SetLimit(1)
		c.checker = flight.New(flight.Config{})
		c.delivered = newDeliveryCount()
		t.Tee(c.checker)
		t.Tee(c.delivered)
		c.s.Attach(t, nil)
	}
	if prof != nil {
		c.s.Eng.AttachProf(prof)
		c.prof = prof
	}
	if pause != nil {
		c.runSliced(pause)
	}
	c.unfinished = c.s.Run(c.spec.horizon)
}

// sliceHost is the host time one slice of a paused run aims at.
const sliceHost = 100 * time.Millisecond

// runSliced advances the engine in slices of simulated time, each sized
// from the last to take about sliceHost, and calls pause after each. No
// event runs between slices, so the engine executes the same events in the
// same order as one Run to the horizon; run finishes with that Run.
func (c *closInstance) runSliced(pause func()) {
	eng := c.s.Eng
	step := 10 * units.Microsecond
	for t := eng.Now(); t < c.spec.horizon && eng.PendingActive() > 0 && !c.s.Col.AllDone(); {
		t = min(t+step, c.spec.horizon)
		t0 := time.Now()
		eng.Run(t)
		d := time.Since(t0)
		pause()
		step = units.Time(float64(step) * min(4, float64(sliceHost)/float64(max(d, time.Microsecond))))
	}
}

func (c *closInstance) collect(tr *tracer) outcome {
	recs := c.s.Col.Flows()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	o := outcome{attempted: len(recs), unfinished: c.unfinished, events: c.s.Eng.Executed}
	h := sha256.New()
	var buf [16]byte
	var slow []float64
	for _, r := range recs {
		o.pkts += r.DataPkts + r.RetransPkts
		fct := int64(-1)
		if r.Done {
			fct = r.FCT().Picos()
			slow = append(slow, r.Slowdown())
		}
		binary.LittleEndian.PutUint64(buf[:8], r.ID)
		binary.LittleEndian.PutUint64(buf[8:], uint64(fct))
		h.Write(buf[:])
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.samples = len(slow)
	o.slowdown = func(p float64) float64 {
		if len(slow) == 0 {
			return 0
		}
		return stats.Percentile(slow, p)
	}
	if c.checker != nil {
		o.violations = c.checker.Violations()
		o.delivery = c.delivered.mismatch(recs)
	}
	return o
}

// flowPSN names one data packet of one flow.
type flowPSN struct {
	flow uint64
	psn  uint32
}

// deliveryCount is an obs sink that sums, per flow, the payload of each
// distinct PSN delivered to the destination NIC. Retransmitted copies of a
// PSN count once, so bytes missing from one flow cannot hide behind
// duplicates of another.
type deliveryCount struct {
	nicBytes map[packet.NodeID]int64 // each NIC's delivered payload so far
	seen     map[flowPSN]bool
	bytes    map[uint64]int64
}

func newDeliveryCount() *deliveryCount {
	return &deliveryCount{nicBytes: map[packet.NodeID]int64{}, seen: map[flowPSN]bool{}, bytes: map[uint64]int64{}}
}

// OnEvent implements obs.Sink. A delivery event carries the NIC's running
// payload total, so the packet's payload is the rise since the NIC's last
// delivery.
func (d *deliveryCount) OnEvent(e *obs.Event) {
	if e.Type != obs.EvDeliver {
		return
	}
	payload := e.Aux - d.nicBytes[e.Node]
	d.nicBytes[e.Node] = e.Aux
	k := flowPSN{e.Flow, e.PSN}
	if payload == 0 || d.seen[k] {
		return
	}
	d.seen[k] = true
	d.bytes[e.Flow] += payload
}

// mismatch describes the first flow whose distinct delivered bytes differ
// from its size, or returns "" when every flow got exactly its size.
func (d *deliveryCount) mismatch(recs []*stats.FlowRecord) string {
	for _, r := range recs {
		if got := d.bytes[r.ID]; got != r.Size {
			return fmt.Sprintf("flow %d delivered %d distinct bytes of its %d", r.ID, got, r.Size)
		}
	}
	return ""
}

func (c *closInstance) layers(m series) {
	eng := c.s.Eng
	fc := c.s.Net.Counters()
	var data, retrans, timeouts, ho, state int64
	for _, r := range c.s.Col.Flows() {
		data += r.DataPkts
		retrans += r.RetransPkts
		timeouts += r.Timeouts
		ho += r.HOTriggers
		state += r.SendStateBytes + r.RecvStateBytes
	}
	m.set("sim.events", float64(eng.Executed))
	m.set("sim.max_heap_depth", float64(eng.MaxHeapDepth))
	m.set("sim.max_live", float64(eng.MaxLive))
	m.set("sim.cancelled_drops", float64(eng.CancelledDrops))
	m.set("sim.cancelled_frac", ratio(float64(eng.CancelledDrops), float64(eng.Executed+eng.CancelledDrops)))
	m.set("sim.events_per_pkt", ratio(float64(eng.Executed), float64(data+retrans)))
	m.set("fabric.pkt_hops", float64(fc.RxPackets))
	m.set("fabric.trimmed", float64(fc.TrimmedPkts))
	m.set("fabric.ho_enqueued", float64(fc.HOEnqueued))
	m.set("fabric.dropped_ho", float64(fc.DroppedHO))
	m.set("fabric.dropped_data", float64(fc.DroppedData))
	m.set("fabric.max_buf_bytes", float64(fc.MaxBufUsed))
	m.set("fabric.trims_per_pkt", ratio(float64(fc.TrimmedPkts), float64(data+retrans)))
	m.set("topo.links", float64(len(c.s.Net.LinkNames())))
	m.set("topo.live_mb", c.topoMB)
	m.set("workload.flows", float64(len(c.flows)))
	setTransport(m, data, retrans, timeouts, ho, state)
	if p := c.prof; p != nil {
		setProf(m, p)
	}
}

// setTransport records the transport counters summed over flow records.
func setTransport(m series, data, retrans, timeouts, ho, state int64) {
	m.set("transport.data_pkts", float64(data))
	m.set("transport.retrans_pkts", float64(retrans))
	m.set("transport.useful_frac", ratio(float64(data), float64(data+retrans)))
	m.set("transport.timeouts", float64(timeouts))
	m.set("transport.ho_triggers", float64(ho))
	m.set("transport.state_bytes", float64(state))
}

// setProf records the dispatch profiler's per-component counts and, when
// its wall clock ran, busy seconds. sim.Prof charges transport code to the
// fabric and nic events that call it, so there is no transport busy time.
func setProf(m series, p *sim.Prof) {
	m.set("fabric.events", float64(p.Counts[sim.CompFabric]))
	m.set("nic.events", float64(p.Counts[sim.CompNIC]))
	m.set("cc.events", float64(p.Counts[sim.CompCC]))
	m.set("fabric.busy_s", float64(p.WallNs[sim.CompFabric])/1e9)
	m.set("nic.busy_s", float64(p.WallNs[sim.CompNIC])/1e9)
	m.set("timer.busy_s", float64(p.WallNs[sim.CompTimer])/1e9)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- campaign_grid: the campaign runner over a worker pool ----

//go:embed grid.toml
var gridDoc []byte

// gridWorkers is the campaign's worker-pool size.
const gridWorkers = 2

type gridInstance struct {
	seed    int64
	tiny    bool
	horizon units.Time // overrides the document's horizon when > 0
	dir     string     // run directory: checkpoints and the provenance bundle
	doc     []byte
	c       *campaign.Campaign
	rep     *campaign.Report
	err     error
	cpu     time.Duration
	wall    time.Duration
	bytes   int64
}

func newGrid(seed int64, o options) instance {
	return &gridInstance{seed: seed, tiny: o.tiny, horizon: o.horizon, dir: o.runDir}
}

// document renders the committed campaign document with its seeds drawn
// from the benchmark seed.
func (g *gridInstance) document() ([]byte, error) {
	doc, diags := campaign.Parse(gridDoc, campaign.FormatTOML)
	if len(diags) > 0 {
		return nil, fmt.Errorf("grid.toml: %v", diags[0])
	}
	rng := rand.New(rand.NewSource(g.seed))
	doc.Seed = rng.Int63n(1 << 31)
	sc := doc.Scenarios[0]
	for i := range sc.Seeds {
		sc.Seeds[i] = rng.Int63n(1 << 31)
	}
	if g.tiny {
		sc.Seeds, sc.FanIn, sc.SizeMB = sc.Seeds[:1], 3, 0.064
	}
	if g.horizon > 0 {
		sc.HorizonMs = g.horizon.Millis()
	}
	return campaign.EncodeTOML(doc), nil
}

func (g *gridInstance) setup(tr *tracer) {
	tr.wrap("workload.gen", func() { g.doc, g.err = g.document() })
	if g.err != nil {
		return
	}
	var doc *campaign.Doc
	var diags []campaign.Diag
	tr.wrap("campaign.parse", func() { doc, diags = campaign.Parse(g.doc, campaign.FormatTOML) })
	if len(diags) > 0 {
		g.err = fmt.Errorf("campaign document: %v", diags[0])
		return
	}
	tr.wrap("campaign.compile", func() { g.c, g.err = campaign.Compile(doc) })
}

func (g *gridInstance) run(tr *tracer, prof *sim.Prof, _ func()) {
	// The campaign attaches its own counts-only profiler to every cell;
	// per-component counts come back through the unit results instead.
	// Its cells run inside campaign.Run, so the run cannot be paused.
	if g.err != nil {
		return
	}
	if g.err = os.RemoveAll(g.dir); g.err != nil {
		return
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	tr.wrap("campaign.run", func() {
		g.rep, g.err = campaign.Run(g.c, g.doc, campaign.Options{Dir: g.dir, Workers: gridWorkers})
	})
	g.wall = time.Since(t0)
	g.cpu = cpuTime() - cpu0
}

func (g *gridInstance) collect(tr *tracer) outcome {
	if g.err != nil {
		return outcome{attempted: 1, expect: []string{g.err.Error()}, digest: "none", slowdown: func(float64) float64 { return 0 }}
	}
	tr.wrap("campaign.render", func() { _ = campaign.RenderTables(g.c, g.rep.Results) })
	var sum stats.RunSummary
	h := sha256.New()
	for i, r := range g.rep.Results {
		h.Write([]byte(g.rep.Digests[i]))
		if r.Summary != nil {
			sum.Merge(r.Summary)
		}
	}
	o := outcome{
		attempted:  int(sum.Flows),
		unfinished: int(sum.Flows - sum.Done),
		violations: g.rep.Violations,
		expect:     g.rep.ExpectFailures,
		samples:    int(sum.Done),
		pkts:       sum.DataPkts + sum.RetransPkts,
		events:     uint64(sum.Events),
		digest:     hex.EncodeToString(h.Sum(nil)),
	}
	o.slowdown = func(p float64) float64 {
		v, _ := sum.Metric(fmt.Sprintf("slowdown_p%g", p))
		return v
	}
	g.bytes = dirBytes(g.dir)
	return o
}

func (g *gridInstance) layers(m series) {
	if g.err != nil {
		return
	}
	var sum stats.RunSummary
	var comps [sim.NumComps]uint64
	for _, r := range g.rep.Results {
		if r.Summary != nil {
			sum.Merge(r.Summary)
		}
		for _, cc := range r.Comps {
			for c := sim.Comp(0); c < sim.NumComps; c++ {
				if c.String() == cc.Comp {
					comps[c] += cc.Events
				}
			}
		}
	}
	m.set("sim.events", float64(sum.Events))
	m.set("sim.events_per_pkt", ratio(float64(sum.Events), float64(sum.DataPkts+sum.RetransPkts)))
	setTransport(m, sum.DataPkts, sum.RetransPkts, sum.Timeouts, sum.HOTriggers, sum.StateBytes)
	setProf(m, &sim.Prof{Counts: comps})
	m.set("workload.flows", float64(sum.Flows))
	m.set("campaign.units", float64(len(g.c.Units)))
	m.set("campaign.bundle_bytes", float64(g.bytes))
	m.set("flight.violations", float64(g.rep.Violations))
	m.set("pool.cpu_util", ratio(g.cpu.Seconds(), gridWorkers*g.wall.Seconds()))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
