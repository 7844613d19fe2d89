// Package dcpsim is a simulation-backed implementation of DCP, the
// switch/RNIC co-designed RDMA transport for lossy fabrics from
// "Revisiting RDMA Reliability for Lossy Fabrics" (SIGCOMM 2025), together
// with the baselines it is evaluated against (RNIC-GBN/PFC, IRN, MP-RDMA,
// RACK-TLP, timeout-only) and the packet-level network substrate they run
// on.
//
// The package exposes a small facade over the internal engine:
//
//	net := dcpsim.NewCluster(dcpsim.ClusterSpec{Hosts: 8, Transport: dcpsim.DCP})
//	h := net.Send(0, 1, 64<<20) // 64 MB RDMA transfer
//	net.Run()
//	fmt.Println(h.Goodput())
//
// Everything is deterministic given the Spec's Seed. For the paper's
// tables and figures, see RunExperiment and cmd/dcpbench.
package dcpsim

import (
	"fmt"
	"io"

	"dcpsim/internal/exp"
	"dcpsim/internal/fabric"
	"dcpsim/internal/faults"
	"dcpsim/internal/obs"
	"dcpsim/internal/obs/flight"
	"dcpsim/internal/packet"
	"dcpsim/internal/pcap"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/topo"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// Transport selects the endpoint protocol.
type Transport string

// Supported transports.
const (
	DCP         Transport = "dcp"     // the paper's contribution (lossy fabric + trimming + AR)
	DCPWithCC   Transport = "dcp+cc"  // DCP with DCQCN integrated
	IRN         Transport = "irn"     // RNIC-SR baseline (lossy fabric)
	GBN         Transport = "gbn"     // CX5-style Go-Back-N (lossy fabric)
	PFC         Transport = "pfc"     // GBN over a PFC lossless fabric
	MPRDMA      Transport = "mprdma"  // MP-RDMA over a PFC lossless fabric
	RACKTLP     Transport = "racktlp" // RACK-TLP loss detection (lossy)
	TimeoutOnly Transport = "timeout" // timeout-only recovery (lossy)
	TCP         Transport = "tcp"     // software TCP-like endpoint
	NDP         Transport = "ndp"     // receiver-driven NDP over the trimming fabric
)

// scheme maps a Transport to the internal scheme bundle.
func (t Transport) scheme() (exp.Scheme, error) {
	switch t {
	case DCP:
		return exp.SchemeDCP(false), nil
	case DCPWithCC:
		return exp.SchemeDCP(true), nil
	case IRN:
		return exp.SchemeIRN(fabric.LBAdaptive, false), nil
	case GBN:
		return exp.SchemeGBNLossy(fabric.LBECMP), nil
	case PFC:
		return exp.SchemePFC(), nil
	case MPRDMA:
		return exp.SchemeMPRDMA(), nil
	case RACKTLP:
		return exp.SchemeRACK(), nil
	case TimeoutOnly:
		return exp.SchemeTimeout(), nil
	case TCP:
		return exp.SchemeTCP(), nil
	case NDP:
		return exp.SchemeNDP(), nil
	default:
		return exp.Scheme{}, fmt.Errorf("dcpsim: unknown transport %q", t)
	}
}

// Topology selects the network shape.
type Topology string

// Supported topologies.
const (
	// Pair is two hosts back-to-back (Hosts is ignored).
	Pair Topology = "pair"
	// Dumbbell is two switches with Hosts/2 hosts each and parallel cross
	// links (the paper's testbed).
	Dumbbell Topology = "dumbbell"
	// Clos is the two-layer 16×16×256 CLOS scaled to Hosts (must be a
	// multiple of 16).
	Clos Topology = "clos"
)

// ClusterSpec configures a simulated cluster.
type ClusterSpec struct {
	Topology  Topology // default Dumbbell
	Hosts     int      // default 16
	Transport Transport
	Seed      int64
	// LinkRateGbps is the NIC/link speed (default 100).
	LinkRateGbps int
	// LossRate injects uniform random loss at switches (trims for DCP).
	LossRate float64
	// LongHaulKm stretches the switch-to-switch links to the given fiber
	// length (5 µs/km), for cross-DC scenarios.
	LongHaulKm int
}

// Cluster is a running simulated network.
type Cluster struct {
	spec   ClusterSpec
	sim    *exp.Sim
	nextID uint64
}

// FlowHandle tracks one transfer.
type FlowHandle struct {
	c  *Cluster
	id uint64
}

// NewCluster builds a cluster per spec. Invalid specs panic with a
// descriptive message (construction errors are programming errors).
func NewCluster(spec ClusterSpec) *Cluster {
	if spec.Topology == "" {
		spec.Topology = Dumbbell
	}
	if spec.Hosts == 0 {
		spec.Hosts = 16
	}
	if spec.LinkRateGbps == 0 {
		spec.LinkRateGbps = 100
	}
	if spec.Transport == "" {
		spec.Transport = DCP
	}
	sch, err := spec.Transport.scheme()
	if err != nil {
		panic(err)
	}
	rate := units.Rate(spec.LinkRateGbps) * units.Gbps
	build := func(eng *sim.Engine) *topo.Network {
		switch spec.Topology {
		case Pair:
			return topo.Direct(eng, rate, units.Microsecond)
		case Clos:
			c := topo.DefaultClos()
			c.Switch = exp.SwitchConfigFor(sch)
			c.Switch.LossRate = spec.LossRate
			c.HostRate, c.LinkRate = rate, rate
			if spec.Hosts%16 != 0 || spec.Hosts == 0 {
				panic("dcpsim: Clos Hosts must be a positive multiple of 16")
			}
			c.Leaves = spec.Hosts / 16
			c.Spines = c.Leaves
			if spec.LongHaulKm > 0 {
				c.SpineDelay = units.Time(spec.LongHaulKm) * 5 * units.Microsecond
			}
			return topo.Clos(eng, c)
		case Dumbbell:
			c := topo.DefaultDumbbell()
			c.Switch = exp.SwitchConfigFor(sch)
			c.Switch.LossRate = spec.LossRate
			c.HostRate = rate
			c.HostsPerSwitch = spec.Hosts / 2
			if c.HostsPerSwitch < 1 {
				c.HostsPerSwitch = 1
			}
			c.CrossLinks = c.HostsPerSwitch
			if spec.LongHaulKm > 0 {
				for i := 0; i < c.CrossLinks; i++ {
					c.CrossDelays = append(c.CrossDelays, units.Time(spec.LongHaulKm)*5*units.Microsecond)
				}
			}
			return topo.Dumbbell(eng, c)
		default:
			panic(fmt.Sprintf("dcpsim: unknown topology %q", spec.Topology))
		}
	}
	return &Cluster{spec: spec, sim: exp.NewSim(spec.Seed, sch, build)}
}

// Hosts returns the number of hosts.
func (c *Cluster) Hosts() int { return len(c.sim.Net.Hosts) }

// Send schedules a transfer of size bytes from host src to host dst,
// starting at the given offset into simulated time (0 = immediately).
func (c *Cluster) Send(src, dst int, size int64) *FlowHandle {
	return c.SendAt(src, dst, size, 0)
}

// SendAt schedules a transfer starting at time `at` (simulated
// nanoseconds).
func (c *Cluster) SendAt(src, dst int, size int64, at int64) *FlowHandle {
	c.nextID++
	f := &workload.Flow{
		ID:    c.nextID,
		Src:   packet.NodeID(src),
		Dst:   packet.NodeID(dst),
		Size:  size,
		Start: c.sim.Eng.Now() + units.Time(at)*units.Nanosecond,
	}
	c.sim.ScheduleFlows([]*workload.Flow{f})
	return &FlowHandle{c: c, id: f.ID}
}

// Run executes the simulation until all scheduled transfers complete (or
// nothing remains to simulate). It returns the number of unfinished flows
// (0 on success).
func (c *Cluster) Run() int { return c.sim.Run(0) }

// RunFor executes at most d simulated nanoseconds.
func (c *Cluster) RunFor(ns int64) int {
	return c.sim.Run(c.sim.Eng.Now() + units.Time(ns)*units.Nanosecond)
}

// NowNanos returns the simulated clock in nanoseconds.
func (c *Cluster) NowNanos() float64 { return c.sim.Eng.Now().Nanos() }

// EngineStats reports the discrete-event engine's own counters for the run
// so far. All four are deterministic for a given seed — the benchmark
// records use Events as the workload signature that must not drift between
// comparable runs.
type EngineStats struct {
	// Events counts dispatched events.
	Events uint64
	// CancelledDrops counts queue entries of stopped or superseded timers
	// discarded from the queue head (scheduling churn the heap paid for
	// without doing work).
	CancelledDrops uint64
	// MaxHeapDepth is the event-queue high-water mark.
	MaxHeapDepth int
	// MaxLive is the high-water mark of pending events that can still fire.
	MaxLive int
}

// EngineStats returns the engine's dispatch counters for the run so far.
func (c *Cluster) EngineStats() EngineStats {
	return EngineStats{
		Events:         c.sim.Eng.Executed,
		CancelledDrops: c.sim.Eng.CancelledDrops,
		MaxHeapDepth:   c.sim.Eng.MaxHeapDepth,
		MaxLive:        c.sim.Eng.MaxLive,
	}
}

// FabricStats summarizes switch-side behaviour.
type FabricStats struct {
	TrimmedPackets int64
	DroppedData    int64
	DroppedHO      int64
	HOPackets      int64
	ECNMarked      int64
	PFCPauses      int64
	MaxBufferBytes int
	// BlackoutDrops counts packets lost inside blacked-out switches,
	// LinkDownDrops packets flushed from egress queues when a link died
	// (both zero unless a FaultPlan was injected).
	BlackoutDrops int64
	LinkDownDrops int64
}

// Fabric returns aggregate switch counters.
func (c *Cluster) Fabric() FabricStats {
	sc := c.sim.Net.Counters()
	return FabricStats{
		TrimmedPackets: sc.TrimmedPkts,
		DroppedData:    sc.DroppedData,
		DroppedHO:      sc.DroppedHO,
		HOPackets:      sc.HOEnqueued,
		ECNMarked:      sc.ECNMarked,
		PFCPauses:      sc.PauseOn,
		MaxBufferBytes: sc.MaxBufUsed,
		BlackoutDrops:  sc.BlackoutDrops,
		LinkDownDrops:  sc.LinkDownDrops,
	}
}

// --- fault injection ---

// LinkNames lists the injectable link names of the cluster's topology:
// "host<i>" for host attachments, "cross<i>" for dumbbell cross links,
// "leaf<l>-spine<s>" for CLOS fabric links, "pair" for a back-to-back pair.
func (c *Cluster) LinkNames() []string { return c.sim.Net.LinkNames() }

// FaultPlan is a seeded, deterministic schedule of fault events. Build one
// with NewFaultPlan, chain builder calls (times in simulated nanoseconds),
// then apply it with Cluster.Inject before Run.
type FaultPlan struct{ p *faults.Plan }

// NewFaultPlan returns an empty plan; all stochastic choices (burst
// placement) derive from seed.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{p: faults.NewPlan(seed)} }

func ns(x int64) units.Time { return units.Time(x) * units.Nanosecond }

// LinkDown takes the named link down at atNs and restores it after durNs.
func (fp *FaultPlan) LinkDown(link string, atNs, durNs int64) *FaultPlan {
	fp.p.LinkDownFor(link, ns(atNs), ns(durNs))
	return fp
}

// LinkFlap schedules count down/up cycles: each periodNs the link spends
// duty×period down.
func (fp *FaultPlan) LinkFlap(link string, startNs, periodNs int64, duty float64, count int) *FaultPlan {
	fp.p.LinkFlap(link, ns(startNs), ns(periodNs), duty, count)
	return fp
}

// LossRamp ramps the link's silent (BER-style) loss probability from 0 up
// to peak and back down over durNs.
func (fp *FaultPlan) LossRamp(link string, startNs, durNs int64, peak float64) *FaultPlan {
	fp.p.LossRamp(link, ns(startNs), ns(durNs), peak, 8)
	return fp
}

// LossBursts schedules n correlated drop bursts of minPkts..maxPkts packets
// at plan-seeded random times within [startNs, startNs+durNs).
func (fp *FaultPlan) LossBursts(link string, startNs, durNs int64, n, minPkts, maxPkts int) *FaultPlan {
	fp.p.LossBursts(link, ns(startNs), ns(durNs), n, minPkts, maxPkts)
	return fp
}

// PauseStorm forces PFC pause on the ports feeding the link for durNs.
func (fp *FaultPlan) PauseStorm(link string, startNs, durNs int64) *FaultPlan {
	fp.p.PauseStorm(link, ns(startNs), ns(durNs), 0, 1)
	return fp
}

// SwitchBlackout crashes switch sw at atNs (buffers flushed, all traffic
// through it lost) and reboots it after durNs.
func (fp *FaultPlan) SwitchBlackout(sw int, atNs, durNs int64) *FaultPlan {
	fp.p.Blackout(sw, ns(atNs), ns(durNs))
	return fp
}

// Inject validates the plan against the cluster's topology and schedules
// its events. Call before Run (events must lie in the simulated future).
func (c *Cluster) Inject(fp *FaultPlan) error {
	_, err := c.sim.Net.Inject(fp.p)
	return err
}

// Done reports whether the transfer completed.
func (h *FlowHandle) Done() bool {
	rec := h.c.sim.Col.Flow(h.id)
	return rec != nil && rec.Done
}

// FCTMicros returns the flow completion time in microseconds (0 if not
// done).
func (h *FlowHandle) FCTMicros() float64 {
	rec := h.c.sim.Col.Flow(h.id)
	if rec == nil || !rec.Done {
		return 0
	}
	return rec.FCT().Micros()
}

// Goodput returns achieved goodput in Gbps (0 if not done).
func (h *FlowHandle) Goodput() float64 {
	rec := h.c.sim.Col.Flow(h.id)
	if rec == nil || !rec.Done {
		return 0
	}
	return stats.Goodput(rec.Size, rec.FCT())
}

// Retransmissions returns the number of retransmitted packets.
func (h *FlowHandle) Retransmissions() int64 {
	rec := h.c.sim.Col.Flow(h.id)
	if rec == nil {
		return 0
	}
	return rec.RetransPkts
}

// Timeouts returns the number of RTO events the flow suffered.
func (h *FlowHandle) Timeouts() int64 {
	rec := h.c.sim.Col.Flow(h.id)
	if rec == nil {
		return 0
	}
	return rec.Timeouts
}

// Experiment names one of the paper's reproducible tables/figures.
type Experiment struct {
	ID    string
	Desc  string
	Heavy bool
}

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range exp.All() {
		out = append(out, Experiment{ID: e.ID, Desc: e.Desc, Heavy: e.Heavy})
	}
	return out
}

// RunExperiment reproduces one table/figure and returns its rendered
// tables. Scale values below 1 shrink workloads proportionally (0 picks a
// default of 0.25).
func RunExperiment(id string, seed int64, scale float64) ([]string, error) {
	e := exp.ByID(id)
	if e == nil {
		return nil, fmt.Errorf("dcpsim: unknown experiment %q", id)
	}
	if scale <= 0 {
		scale = 0.25
	}
	var out []string
	for _, t := range e.Run(exp.Config{Seed: seed, Scale: scale}) {
		out = append(out, t.String())
	}
	return out, nil
}

// CollectiveResult reports one collective operation.
type CollectiveResult struct {
	JCTMillis float64
	Flows     int
}

// RunAllReduce executes a Ring-AllReduce of totalBytes across the given
// member hosts and returns its job completion time. It runs the simulation
// to completion.
func (c *Cluster) RunAllReduce(members []int, totalBytes int64) CollectiveResult {
	return c.runCollective("AllReduce", members, totalBytes)
}

// RunAllToAll executes an AllToAll of totalBytes across the given member
// hosts and returns its job completion time.
func (c *Cluster) RunAllToAll(members []int, totalBytes int64) CollectiveResult {
	return c.runCollective("AllToAll", members, totalBytes)
}

func (c *Cluster) runCollective(kind string, members []int, totalBytes int64) CollectiveResult {
	ids := make([]packet.NodeID, len(members))
	for i, m := range members {
		ids[i] = packet.NodeID(m)
	}
	var cf *workload.Coflow
	base := c.nextID + 1
	if kind == "AllReduce" {
		cf = workload.RingAllReduce(ids, totalBytes, 0, base)
	} else {
		cf = workload.AllToAll(ids, totalBytes, 0, base)
	}
	c.nextID += uint64(cf.NumFlows())
	start := c.sim.Eng.Now()
	var jct units.Time
	c.sim.RunCoflow(cf, start, func(at units.Time) { jct = at - start })
	c.sim.Run(0)
	return CollectiveResult{
		JCTMillis: jct.Millis(),
		Flows:     cf.NumFlows(),
	}
}

// Capture attaches a fabric-wide packet capture (a span port on every NIC
// and switch egress) and streams a standard pcap file to w. Call before
// Run; open the result in Wireshark to inspect DCP headers, trimmed
// 57-byte HO packets and eMSN-bearing ACKs.
func (c *Cluster) Capture(w io.Writer) error {
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return err
	}
	c.sim.Net.TapAll(func(p *packet.Packet) {
		pw.Record(p, c.sim.Eng.Now())
	})
	return nil
}

// --- observability ---

// ObserveSpec configures the observability layer for a cluster run.
type ObserveSpec struct {
	// MetricsIntervalUs is the probe cadence in simulated microseconds
	// (0 picks the 10 µs default).
	MetricsIntervalUs float64
	// MaxEvents bounds the in-memory trace buffer (0 picks the ~1M default).
	// Overflow is counted (see Observation.DroppedEvents), never silent.
	MaxEvents int
	// JSONL, when non-nil, streams every trace event as one JSON line while
	// the simulation runs; the stream is not bounded by MaxEvents.
	JSONL io.Writer
	// WallNanos, when set, supplies monotonic wall-clock nanoseconds for the
	// engine.wall_ms_per_sim_s self-profiling series. The simulator never
	// reads the host clock itself; callers inject it deliberately.
	WallNanos func() int64
	// Check attaches the flight-recorder invariant checker to the trace
	// stream: per-PSN causal recovery chains, online invariant checking
	// (exactly-once placement, eMSN monotonicity, RetransQ fetch
	// provenance, retry-epoch consistency), and the autopsy report. Like
	// every sink it observes only; a checked run stays bit-identical.
	Check bool
	// StrictHO, with Check, promotes control-queue HO drops from a counted
	// warning to an invariant violation.
	StrictHO bool
}

// Observation is a cluster's attached observability sinks: the packet-
// lifecycle trace and the sampled time-series metrics. Sinks only record —
// a run with an Observation attached produces bit-identical flow results
// (FCTs, goodput, retransmissions) to the same seed without one.
type Observation struct {
	tr *obs.Tracer
	m  *obs.Metrics
	ck *flight.Checker
}

// Observe attaches tracing and metrics to the cluster. Call after
// NewCluster and before Run so the series cover the whole simulation.
func (c *Cluster) Observe(spec ObserveSpec) *Observation {
	tr := obs.NewTracer()
	if spec.MaxEvents > 0 {
		tr.SetLimit(spec.MaxEvents)
	}
	if spec.JSONL != nil {
		tr.StreamJSONL(spec.JSONL)
	}
	interval := obs.DefaultMetricsInterval
	if spec.MetricsIntervalUs > 0 {
		interval = units.Scale(units.Microsecond, spec.MetricsIntervalUs)
	}
	m := obs.NewMetrics(c.sim.Eng, interval)
	if spec.WallNanos != nil {
		m.WallNanos = spec.WallNanos
	}
	var ck *flight.Checker
	if spec.Check {
		ck = flight.New(flight.Config{StrictHO: spec.StrictHO})
		tr.Tee(ck)
	}
	c.sim.Attach(tr, m)
	return &Observation{tr: tr, m: m, ck: ck}
}

// Checked reports whether the flight-recorder checker is attached.
func (o *Observation) Checked() bool { return o.ck != nil }

// Violations returns the invariant-violation count (0 when no checker is
// attached).
func (o *Observation) Violations() int64 {
	if o.ck == nil {
		return 0
	}
	return o.ck.Violations()
}

// errNoChecker reports an autopsy request without ObserveSpec.Check.
var errNoChecker = fmt.Errorf("dcpsim: autopsy requires ObserveSpec.Check")

// WriteAutopsyText writes the flight recorder's human-readable autopsy:
// per-flow recovery waterfalls, recovery-stage latency percentiles, and any
// invariant violations with their causal chains. Call after Run.
func (o *Observation) WriteAutopsyText(w io.Writer) error {
	if o.ck == nil {
		return errNoChecker
	}
	return o.ck.Finish().WriteText(w)
}

// WriteAutopsyJSON writes the autopsy as one byte-stable JSON object.
func (o *Observation) WriteAutopsyJSON(w io.Writer) error {
	if o.ck == nil {
		return errNoChecker
	}
	return o.ck.Finish().WriteJSON(w)
}

// WriteChromeTrace writes the buffered events plus metrics counter tracks
// in Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func (o *Observation) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, o.tr.Events(), o.m)
}

// WriteJSONL writes the buffered events as JSON lines.
func (o *Observation) WriteJSONL(w io.Writer) error { return o.tr.WriteJSONL(w) }

// WriteMetricsCSV writes the sampled series as CSV (time_us plus one column
// per series).
func (o *Observation) WriteMetricsCSV(w io.Writer) error { return o.m.WriteCSV(w) }

// WriteMetricsJSON writes the sampled series as one JSON object.
func (o *Observation) WriteMetricsJSON(w io.Writer) error { return o.m.WriteJSON(w) }

// Events returns the number of buffered trace events.
func (o *Observation) Events() int { return o.tr.Len() }

// DroppedEvents returns how many events overflowed the in-memory buffer.
func (o *Observation) DroppedEvents() uint64 { return o.tr.Dropped() }

// MetricsSamples returns the number of probe ticks taken.
func (o *Observation) MetricsSamples() int { return o.m.Samples() }

// CountsByType tallies buffered events per event-type name.
func (o *Observation) CountsByType() map[string]int64 {
	out := make(map[string]int64)
	for _, tc := range obs.CountByType(o.tr.Events()) {
		out[tc.Type.String()] = tc.N
	}
	return out
}

// TrimChains counts completed trim → HO-bounce/return → retransmit
// lifecycle chains in the trace: direct evidence of DCP's HO-based loss
// recovery working end to end.
func (o *Observation) TrimChains() int { return obs.RetransChains(o.tr.Events()) }

// SeriesValues returns the sampled values of a named metrics series (nil if
// the series does not exist). NaN marks ticks before the series existed.
func (o *Observation) SeriesValues(name string) []float64 {
	s := o.m.Lookup(name)
	if s == nil {
		return nil
	}
	return s.Values()
}

// SeriesNames returns the registered metrics series names in registration
// order (the column order of WriteMetricsCSV).
func (o *Observation) SeriesNames() []string {
	series := o.m.Series()
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = s.Name
	}
	return names
}

// WebSearchSpec configures a WebSearch workload run on the 256-host CLOS
// (the Fig. 13 setting).
type WebSearchSpec struct {
	Transport Transport
	Flows     int
	Load      float64
	Seed      int64
}

// WebSearchResult summarizes one WebSearch run.
type WebSearchResult struct {
	P50Slowdown, P95Slowdown float64
	Retransmissions          int64
	Timeouts                 int64
	Unfinished               int
}

// RunWebSearch executes a WebSearch workload over the full CLOS with the
// given transport and returns aggregate FCT slowdowns.
func RunWebSearch(spec WebSearchSpec) WebSearchResult {
	sch, err := spec.Transport.scheme()
	if err != nil {
		panic(err)
	}
	if spec.Flows == 0 {
		spec.Flows = 150
	}
	if spec.Load == 0 {
		spec.Load = 0.3
	}
	s := exp.RunWebSearch(exp.Config{Seed: spec.Seed, Scale: 1}, sch, spec.Load, spec.Flows)
	var res WebSearchResult
	var slows []float64
	for _, f := range s.Col.FinishedFlows("bg") {
		slows = append(slows, f.Slowdown())
		res.Retransmissions += f.RetransPkts
		res.Timeouts += f.Timeouts
	}
	res.P50Slowdown = stats.Percentile(slows, 50)
	res.P95Slowdown = stats.Percentile(slows, 95)
	res.Unfinished = s.Col.CountUnfinished()
	return res
}
