package topo

import (
	"fmt"
	"slices"
	"testing"

	"dcpsim/internal/fabric"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/units"
)

// pingTransport emits one scripted packet per destination and records
// arrivals.
type pingTransport struct {
	out []*packet.Packet
	got map[packet.NodeID]int
	id  packet.NodeID
}

func (p *pingTransport) Handle(pkt *packet.Packet) {
	if p.got == nil {
		p.got = map[packet.NodeID]int{}
	}
	p.got[pkt.Src]++
}

func (p *pingTransport) Dequeue(_ units.Time, paused bool) *packet.Packet {
	if paused || len(p.out) == 0 {
		return nil
	}
	pkt := p.out[0]
	p.out = p.out[1:]
	return pkt
}

func installPings(net *Network) []*pingTransport {
	trs := make([]*pingTransport, len(net.Hosts))
	for i, h := range net.Hosts {
		tr := &pingTransport{id: h.ID()}
		trs[i] = tr
		h.SetTransport(tr)
	}
	return trs
}

func runFullMesh(t *testing.T, net *Network, trs []*pingTransport) {
	t.Helper()
	for i, tr := range trs {
		for j := range trs {
			if i == j {
				continue
			}
			p := packet.DataPacket(uint64(i*1000+j), net.Hosts[i].ID(), net.Hosts[j].ID(), 0, 0, 100)
			tr.out = append(tr.out, p)
		}
		net.Hosts[i].Kick()
	}
	net.Eng.Run(0)
	for j, tr := range trs {
		for i := range trs {
			if i == j {
				continue
			}
			if tr.got[net.Hosts[i].ID()] != 1 {
				t.Fatalf("host %d did not receive exactly one packet from %d (got %d)",
					j, i, tr.got[net.Hosts[i].ID()])
			}
		}
	}
}

func TestDirectConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	net := Direct(eng, 100*units.Gbps, units.Microsecond)
	if len(net.Hosts) != 2 || len(net.Switches) != 0 {
		t.Fatal("direct shape")
	}
	trs := installPings(net)
	runFullMesh(t, net, trs)
	if net.BaseRTT <= 2*units.Microsecond {
		t.Fatal("BaseRTT must include serialization")
	}
}

func TestDumbbellConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultDumbbell()
	net := Dumbbell(eng, cfg)
	if len(net.Hosts) != 16 || len(net.Switches) != 2 {
		t.Fatal("dumbbell shape")
	}
	trs := installPings(net)
	runFullMesh(t, net, trs)
}

func TestDumbbellCrossRatesAndDelays(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultDumbbell()
	cfg.HostsPerSwitch = 1
	cfg.CrossLinks = 2
	cfg.CrossRates = []units.Rate{100 * units.Gbps, 10 * units.Gbps}
	cfg.CrossDelays = []units.Time{0, 50 * units.Microsecond}
	net := Dumbbell(eng, cfg)
	// BaseRTT uses the worst cross delay.
	if net.BaseRTT < 100*units.Microsecond {
		t.Fatalf("BaseRTT %v must cover the 50us link", net.BaseRTT)
	}
	trs := installPings(net)
	runFullMesh(t, net, trs)
}

func TestClosConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	net := Clos(eng, cfg)
	if len(net.Hosts) != 16 || len(net.Switches) != 8 {
		t.Fatal("clos shape")
	}
	trs := installPings(net)
	runFullMesh(t, net, trs)
}

// TestClosRoutesShared: every remote destination of a leaf gets the leaf's
// uplinks in spine order, all from one backing array, and every host under
// a leaf shares each spine's one down list.
func TestClosRoutesShared(t *testing.T) {
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 3, 2
	net := Clos(sim.NewEngine(1), cfg)
	nHosts := cfg.Leaves * cfg.HostsPerLeaf
	for l := 0; l < cfg.Leaves; l++ {
		ups := make([]int, cfg.Spines)
		for s := range ups {
			ups[s] = net.LinkEnds(fmt.Sprintf("leaf%d-spine%d", l, s))[0].Egress
		}
		var shared []int
		for dst := 0; dst < nHosts; dst++ {
			if dst/cfg.HostsPerLeaf == l {
				continue
			}
			got := net.Switches[l].Route(packet.NodeID(dst))
			if !slices.Equal(got, ups) {
				t.Fatalf("leaf %d dst %d: candidates %v, want spine-ordered uplinks %v", l, dst, got, ups)
			}
			if shared == nil {
				shared = got
			} else if &got[0] != &shared[0] {
				t.Fatalf("leaf %d dst %d: route list not shared with the leaf's other remote destinations", l, dst)
			}
		}
		for s := 0; s < cfg.Spines; s++ {
			spine := net.Switches[cfg.Leaves+s]
			down := net.LinkEnds(fmt.Sprintf("leaf%d-spine%d", l, s))[1].Egress
			first := spine.Route(packet.NodeID(l * cfg.HostsPerLeaf))
			for dst := l * cfg.HostsPerLeaf; dst < (l+1)*cfg.HostsPerLeaf; dst++ {
				got := spine.Route(packet.NodeID(dst))
				if !slices.Equal(got, []int{down}) || &got[0] != &first[0] {
					t.Fatalf("spine %d dst %d: candidates %v, want the leaf's shared down list [%d]", s, dst, got, down)
				}
			}
		}
	}
}

func TestClosECMPConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	cfg.Switch.LB = fabric.LBECMP
	net := Clos(eng, cfg)
	trs := installPings(net)
	runFullMesh(t, net, trs)
}

func TestClosLosslessThresholds(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	cfg.Switch.Lossless = true
	cfg.Switch.Trimming = false
	net := Clos(eng, cfg)
	for _, sw := range net.Switches {
		c := sw.Config()
		if !c.Lossless {
			t.Fatal("lossless flag lost")
		}
		if c.PFCXoff <= 0 || c.PFCXon <= 0 || c.PFCXon >= c.PFCXoff {
			t.Fatalf("bad PFC thresholds: xoff=%d xon=%d", c.PFCXoff, c.PFCXon)
		}
	}
	trs := installPings(net)
	runFullMesh(t, net, trs)
}

func TestClosIntraRackStaysLocal(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	net := Clos(eng, cfg)
	tr := installPings(net)
	// Host 0 -> host 1 share leaf 0: one switch hop only.
	p := packet.DataPacket(1, net.Hosts[0].ID(), net.Hosts[1].ID(), 0, 0, 100)
	tr[0].out = append(tr[0].out, p)
	net.Hosts[0].Kick()
	eng.Run(0)
	if tr[1].got[net.Hosts[0].ID()] != 1 {
		t.Fatal("intra-rack delivery failed")
	}
	if p.Hops != 1 {
		t.Fatalf("intra-rack path took %d switch hops, want 1", p.Hops)
	}
}

func TestClosCrossRackHops(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	net := Clos(eng, cfg)
	tr := installPings(net)
	p := packet.DataPacket(1, net.Hosts[0].ID(), net.Hosts[5].ID(), 0, 0, 100)
	tr[0].out = append(tr[0].out, p)
	net.Hosts[0].Kick()
	eng.Run(0)
	if p.Hops != 3 {
		t.Fatalf("cross-rack path took %d switch hops, want 3 (leaf-spine-leaf)", p.Hops)
	}
}

func TestCountersAggregate(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 2
	net := Clos(eng, cfg)
	trs := installPings(net)
	runFullMesh(t, net, trs)
	c := net.Counters()
	if c.RxPackets == 0 {
		t.Fatal("aggregate counters empty")
	}
}

func TestBaseRTTScalesWithSpineDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultClos()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 2
	near := Clos(eng, cfg).BaseRTT
	cfg2 := cfg
	cfg2.SpineDelay = 500 * units.Microsecond
	far := Clos(sim.NewEngine(1), cfg2).BaseRTT
	if far < near+1900*units.Microsecond {
		t.Fatalf("cross-DC RTT %v vs %v", far, near)
	}
}
