// Package topo builds the simulated networks used in the paper's
// evaluation: a direct back-to-back pair (Fig. 8), the 2×8 dumbbell testbed
// with parallel cross links (Figs. 9–12, long-haul), and the two-layer CLOS
// with 16 spines, 16 leaves and 256 hosts (§6.2). It wires NICs, switches,
// routing tables and PFC thresholds.
package topo

import (
	"fmt"

	"dcpsim/internal/fabric"
	"dcpsim/internal/faults"
	"dcpsim/internal/nic"
	"dcpsim/internal/obs"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/transport/base"
	"dcpsim/internal/units"
)

// Network is a built topology.
type Network struct {
	Eng      *sim.Engine
	Hosts    []*nic.NIC
	Switches []*fabric.Switch

	// BaseRTT is the unloaded round-trip time between the farthest host
	// pair, including per-hop store-and-forward of one MTU-sized packet.
	BaseRTT units.Time
	// HostRate is the NIC line rate.
	HostRate units.Rate

	Transports []base.Transport

	// links names every physical link for fault injection: "host<i>" for
	// host attachments, "cross<i>" for dumbbell cross links,
	// "leaf<l>-spine<s>" for CLOS fabric links, "pair" for a direct pair.
	links     map[string][]faults.LinkEnd
	linkOrder []string

	// trace is the attached observability sink (nil = off); Inject forwards
	// it so fault events land in the same trace as packet events.
	trace *obs.Tracer
}

// addLink registers a named link's directional ends.
func (n *Network) addLink(name string, ends ...faults.LinkEnd) {
	if n.links == nil {
		n.links = make(map[string][]faults.LinkEnd)
	}
	if _, ok := n.links[name]; !ok {
		n.linkOrder = append(n.linkOrder, name)
	}
	n.links[name] = append(n.links[name], ends...)
}

// LinkNames lists the injectable link names in construction order.
func (n *Network) LinkNames() []string {
	return append([]string(nil), n.linkOrder...)
}

// LinkEnds returns the directional ends of a named link (nil if unknown).
func (n *Network) LinkEnds(name string) []faults.LinkEnd { return n.links[name] }

// Inject validates a fault plan against this network and schedules its
// events on the engine.
func (n *Network) Inject(p *faults.Plan) (*faults.Injector, error) {
	return faults.Inject(n.Eng, p, faults.Targets{Links: n.links, Switches: n.Switches, Trace: n.trace})
}

// Observe attaches the observability sinks across the fabric: every switch
// and host NIC gets the tracer, and (when m is non-nil) the registry gains
// per-egress queue-depth gauges, shared-buffer occupancy, fabric-wide trim /
// HO / drop counters with their rates, and a host receive-goodput series.
// Sinks only record — attaching them never changes simulation behaviour.
// Call before the simulation runs so series cover the whole run.
func (n *Network) Observe(tr *obs.Tracer, m *obs.Metrics) {
	n.trace = tr
	for _, h := range n.Hosts {
		h.SetTrace(tr)
	}
	for _, s := range n.Switches {
		s.SetTrace(tr)
	}
	if m == nil {
		return
	}
	for si, s := range n.Switches {
		s := s
		m.Gauge(fmt.Sprintf("sw%d.buf_bytes", si), func() float64 { return float64(s.BufUsed()) })
		for ei := 0; ei < s.NumEgress(); ei++ {
			e := s.EgressAt(ei)
			m.Gauge(fmt.Sprintf("sw%d.eg%d.dataq_bytes", si, ei),
				func() float64 { return float64(e.QueuedDataBytes()) })
			m.Gauge(fmt.Sprintf("sw%d.eg%d.ctrlq_bytes", si, ei),
				func() float64 { return float64(e.QueuedCtrlBytes()) })
		}
	}
	m.Gauge("fabric.trimmed_pkts", func() float64 { return float64(n.Counters().TrimmedPkts) })
	m.RatePerSec("fabric.trim_rate_pps", func() float64 { return float64(n.Counters().TrimmedPkts) })
	m.Gauge("fabric.ho_enqueued", func() float64 { return float64(n.Counters().HOEnqueued) })
	m.RatePerSec("fabric.ho_rate_pps", func() float64 { return float64(n.Counters().HOEnqueued) })
	m.Gauge("fabric.dropped_data", func() float64 { return float64(n.Counters().DroppedData) })
	m.Gauge("fabric.dropped_ho", func() float64 { return float64(n.Counters().DroppedHO) })
	hosts := n.Hosts
	m.RatePerSec("hosts.rx_gbps", func() float64 {
		var b int64
		for _, h := range hosts {
			b += h.DeliveredBytes
		}
		return float64(b) * 8 / 1e9
	})
}

// Install builds one transport endpoint per host.
func (n *Network) Install(f base.Factory, env *base.Env) {
	env.Defaults()
	n.Transports = make([]base.Transport, len(n.Hosts))
	for i, h := range n.Hosts {
		tr := f(h, env)
		n.Transports[i] = tr
		h.SetTransport(tr)
	}
}

// TapAll attaches fn to every port in the network (host NICs and switch
// egresses) — a fabric-wide span port for packet capture and tracing.
func (n *Network) TapAll(fn func(p *packet.Packet)) {
	for _, h := range n.Hosts {
		if h.Port() != nil {
			h.Port().Tap = fn
		}
	}
	for _, s := range n.Switches {
		for i := 0; i < s.NumEgress(); i++ {
			s.EgressAt(i).Port.Tap = fn
		}
	}
}

// Counters sums switch counters across the fabric.
func (n *Network) Counters() fabric.SwitchCounters {
	var c fabric.SwitchCounters
	for _, s := range n.Switches {
		sc := s.Counters
		c.RxPackets += sc.RxPackets
		c.TrimmedPkts += sc.TrimmedPkts
		c.DroppedData += sc.DroppedData
		c.DroppedAck += sc.DroppedAck
		c.DroppedHO += sc.DroppedHO
		c.HOEnqueued += sc.HOEnqueued
		c.ECNMarked += sc.ECNMarked
		c.ForcedLosses += sc.ForcedLosses
		c.PauseOn += sc.PauseOn
		c.BlackoutDrops += sc.BlackoutDrops
		c.LinkDownDrops += sc.LinkDownDrops
		if sc.MaxBufUsed > c.MaxBufUsed {
			c.MaxBufUsed = sc.MaxBufUsed
		}
	}
	return c
}

// pfcThresholds sets XOFF/XON on a lossless switch config given the port
// count and worst-case per-ingress headroom (2×delay×rate in-flight bytes
// after a PAUSE).
func pfcThresholds(cfg *fabric.SwitchConfig, nPorts int, rate units.Rate, maxDelay units.Time) {
	headroom := 2*int(units.BytesIn(maxDelay, rate)) + 2*1600
	avail := cfg.BufferBytes - nPorts*headroom
	xoff := avail / (2 * nPorts)
	if xoff < 50*units.KB {
		xoff = 50 * units.KB
	}
	cfg.PFCXoff = xoff
	cfg.PFCXon = xoff / 2
}

// Direct builds two hosts wired back-to-back (the Fig. 8 perftest setup).
func Direct(eng *sim.Engine, rate units.Rate, delay units.Time) *Network {
	a := nic.New(eng, 0, rate)
	b := nic.New(eng, 1, rate)
	wab := fabric.Attach(eng, delay, b)
	wba := fabric.Attach(eng, delay, a)
	a.SetUplink(wab)
	b.SetUplink(wba)
	rtt := 2*delay + 2*units.TxTime(packet.DefaultMTU+100, rate)
	net := &Network{Eng: eng, Hosts: []*nic.NIC{a, b}, BaseRTT: rtt, HostRate: rate}
	net.addLink("pair",
		faults.LinkEnd{Wire: wab, Egress: -1},
		faults.LinkEnd{Wire: wba, Egress: -1})
	return net
}

// DumbbellConfig parameterizes the 2-switch testbed topology of Fig. 9.
type DumbbellConfig struct {
	HostsPerSwitch int
	CrossLinks     int
	HostRate       units.Rate
	// CrossRates optionally sets per-cross-link rates (Fig. 11's unequal
	// paths); nil means HostRate everywhere.
	CrossRates []units.Rate
	// CrossDelays optionally sets per-cross-link propagation delays (the
	// 10 km long-haul experiment); nil means HostDelay.
	CrossDelays []units.Time
	HostDelay   units.Time
	Switch      fabric.SwitchConfig
}

// DefaultDumbbell mirrors the paper's testbed: 8 FPGAs per switch, 8
// parallel 100 Gbps cross links, 1 µs host links.
func DefaultDumbbell() DumbbellConfig {
	return DumbbellConfig{
		HostsPerSwitch: 8,
		CrossLinks:     8,
		HostRate:       100 * units.Gbps,
		HostDelay:      1 * units.Microsecond,
		Switch:         fabric.DefaultSwitchConfig(),
	}
}

// Dumbbell builds the testbed topology.
func Dumbbell(eng *sim.Engine, cfg DumbbellConfig) *Network {
	h := cfg.HostsPerSwitch
	total := 2 * h
	hosts := make([]*nic.NIC, total)
	for i := range hosts {
		hosts[i] = nic.New(eng, packet.NodeID(i), cfg.HostRate)
	}
	swCfg := cfg.Switch
	maxCross := cfg.HostDelay
	for _, d := range cfg.CrossDelays {
		if d > maxCross {
			maxCross = d
		}
	}
	if swCfg.Lossless && swCfg.PFCXoff == 0 {
		pfcThresholds(&swCfg, h+cfg.CrossLinks, cfg.HostRate, maxCross)
	}
	s1 := fabric.NewSwitch(eng, packet.NodeID(total), swCfg)
	s2 := fabric.NewSwitch(eng, packet.NodeID(total+1), swCfg)
	sws := []*fabric.Switch{s1, s2}

	rtt := 2*(2*cfg.HostDelay+maxCross) + 6*units.TxTime(packet.DefaultMTU+100, cfg.HostRate)
	net := &Network{Eng: eng, Hosts: hosts, Switches: sws, BaseRTT: rtt, HostRate: cfg.HostRate}

	routes1 := make([][]int, total)
	routes2 := make([][]int, total)
	for side, sw := range sws {
		other := sws[1-side]
		routes := routes1
		if side == 1 {
			routes = routes2
		}
		// Host-facing ports.
		for i := 0; i < h; i++ {
			hostIdx := side*h + i
			n := hosts[hostIdx]
			up := fabric.Attach(eng, cfg.HostDelay, sw)
			n.SetUplink(up)
			dw := fabric.Attach(eng, cfg.HostDelay, n)
			down := sw.AddEgress(cfg.HostRate, dw)
			routes[hostIdx] = []int{down}
			net.addLink(fmt.Sprintf("host%d", hostIdx),
				faults.LinkEnd{Wire: up, Egress: -1},
				faults.LinkEnd{Wire: dw, Switch: sw, Egress: down})
		}
		// Cross links toward the other switch.
		for i := 0; i < cfg.CrossLinks; i++ {
			rate := cfg.HostRate
			if i < len(cfg.CrossRates) && cfg.CrossRates[i] > 0 {
				rate = cfg.CrossRates[i]
			}
			delay := cfg.HostDelay
			if i < len(cfg.CrossDelays) && cfg.CrossDelays[i] > 0 {
				delay = cfg.CrossDelays[i]
			}
			cw := fabric.Attach(eng, delay, other)
			up := sw.AddEgress(rate, cw)
			net.addLink(fmt.Sprintf("cross%d", i),
				faults.LinkEnd{Wire: cw, Switch: sw, Egress: up})
			for hostIdx := (1 - side) * h; hostIdx < (2-side)*h; hostIdx++ {
				routes[hostIdx] = append(routes[hostIdx], up)
			}
		}
	}
	s1.SetRoutes(routes1)
	s2.SetRoutes(routes2)
	return net
}

// ClosConfig parameterizes the two-layer CLOS of §6.2.
type ClosConfig struct {
	Spines, Leaves, HostsPerLeaf int
	HostRate                     units.Rate
	LinkRate                     units.Rate // leaf-spine rate
	HostDelay                    units.Time // host-leaf propagation
	SpineDelay                   units.Time // leaf-spine propagation (500 µs / 5 ms cross-DC)
	Switch                       fabric.SwitchConfig
}

// DefaultClos mirrors the paper: 16 spines, 16 leaves, 16 hosts per leaf,
// all links 100 Gbps with 1 µs propagation, 32 MB buffers.
func DefaultClos() ClosConfig {
	return ClosConfig{
		Spines: 16, Leaves: 16, HostsPerLeaf: 16,
		HostRate:   100 * units.Gbps,
		LinkRate:   100 * units.Gbps,
		HostDelay:  1 * units.Microsecond,
		SpineDelay: 1 * units.Microsecond,
		Switch:     fabric.DefaultSwitchConfig(),
	}
}

// Clos builds the CLOS topology. Host i lives under leaf i/HostsPerLeaf.
func Clos(eng *sim.Engine, cfg ClosConfig) *Network {
	nHosts := cfg.Leaves * cfg.HostsPerLeaf
	hosts := make([]*nic.NIC, nHosts)
	for i := range hosts {
		hosts[i] = nic.New(eng, packet.NodeID(i), cfg.HostRate)
	}

	leafCfg := cfg.Switch
	spineCfg := cfg.Switch
	if cfg.Switch.Lossless {
		if leafCfg.PFCXoff == 0 {
			pfcThresholds(&leafCfg, cfg.HostsPerLeaf+cfg.Spines, cfg.LinkRate, cfg.SpineDelay)
		}
		if spineCfg.PFCXoff == 0 {
			pfcThresholds(&spineCfg, cfg.Leaves, cfg.LinkRate, cfg.SpineDelay)
		}
	}

	leaves := make([]*fabric.Switch, cfg.Leaves)
	spines := make([]*fabric.Switch, cfg.Spines)
	for l := range leaves {
		leaves[l] = fabric.NewSwitch(eng, packet.NodeID(nHosts+l), leafCfg)
	}
	for s := range spines {
		spines[s] = fabric.NewSwitch(eng, packet.NodeID(nHosts+cfg.Leaves+s), spineCfg)
	}

	leafRoutes := make([][][]int, cfg.Leaves)
	spineRoutes := make([][][]int, cfg.Spines)
	for l := range leafRoutes {
		leafRoutes[l] = make([][]int, nHosts)
	}
	for s := range spineRoutes {
		spineRoutes[s] = make([][]int, nHosts)
	}

	sws := append(append([]*fabric.Switch{}, leaves...), spines...)
	rtt := 2*(2*cfg.HostDelay+2*cfg.SpineDelay) + 8*units.TxTime(packet.DefaultMTU+100, cfg.HostRate)
	net := &Network{Eng: eng, Hosts: hosts, Switches: sws, BaseRTT: rtt, HostRate: cfg.HostRate}

	// Host <-> leaf links.
	for i, h := range hosts {
		l := i / cfg.HostsPerLeaf
		uw := fabric.Attach(eng, cfg.HostDelay, leaves[l])
		h.SetUplink(uw)
		dw := fabric.Attach(eng, cfg.HostDelay, h)
		down := leaves[l].AddEgress(cfg.HostRate, dw)
		leafRoutes[l][i] = []int{down}
		net.addLink(fmt.Sprintf("host%d", i),
			faults.LinkEnd{Wire: uw, Egress: -1},
			faults.LinkEnd{Wire: dw, Switch: leaves[l], Egress: down})
	}
	// Leaf <-> spine links (full bipartite). Route lists are read-only, so
	// every remote destination of a leaf shares the leaf's one uplink list,
	// and every host under a leaf shares each spine's one down list.
	for l, leaf := range leaves {
		ups := make([]int, len(spines))
		for s, spine := range spines {
			uw := fabric.Attach(eng, cfg.SpineDelay, spine)
			dw := fabric.Attach(eng, cfg.SpineDelay, leaf)
			ups[s] = leaf.AddEgress(cfg.LinkRate, uw)
			down := spine.AddEgress(cfg.LinkRate, dw)
			net.addLink(fmt.Sprintf("leaf%d-spine%d", l, s),
				faults.LinkEnd{Wire: uw, Switch: leaf, Egress: ups[s]},
				faults.LinkEnd{Wire: dw, Switch: spine, Egress: down})
			downs := []int{down}
			for i := l * cfg.HostsPerLeaf; i < (l+1)*cfg.HostsPerLeaf; i++ {
				spineRoutes[s][i] = downs
			}
		}
		for i := 0; i < nHosts; i++ {
			if i/cfg.HostsPerLeaf != l {
				leafRoutes[l][i] = ups
			}
		}
	}
	for l, leaf := range leaves {
		leaf.SetRoutes(leafRoutes[l])
	}
	for s, spine := range spines {
		spine.SetRoutes(spineRoutes[s])
	}
	return net
}
