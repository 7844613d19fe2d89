package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dcpsim/internal/exp"
	"dcpsim/internal/packet"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/workload"
)

// legacyWorkload reproduces the metric set of an earlier benchmark
// definition that was rejected as too noisy: one cold set-up of the
// 256-host CLOS, about 120 WebSearch flows, one run. It is not one of the
// benchmark's workloads; steady.py runs it to show which of those metrics
// fail to repeat.
const legacyWorkload = "legacy_websearch"

func measureLegacy(o options, w io.Writer) (jsonResult, error) {
	spec := closSpec{scheme: exp.SchemeDCP(false), leaves: 16, spines: 16, hostsPerLeaf: 16}
	if o.tiny {
		spec.leaves, spec.spines, spec.hostsPerLeaf = 4, 4, 4
	}
	spec.gen = func(rng *rand.Rand, hosts []packet.NodeID, rate units.Rate) []*workload.Flow {
		return workload.GeneratePoisson(rng, workload.PoissonConfig{
			Load: 0.5, Hosts: hosts, HostRate: rate, Dist: workload.WebSearch(),
			Count: 120, Class: "bg", BaseID: 1,
		})
	}
	inst := newClos(spec, o.seed, o)
	t0 := time.Now()
	inst.setup(nil)
	setup := time.Since(t0)
	t1 := time.Now()
	inst.run(nil, nil, nil)
	wall := time.Since(t1)
	oc := inst.collect(nil)

	var fcts []float64
	for _, r := range inst.s.Col.Flows() {
		if r.Done {
			fcts = append(fcts, r.FCT().Micros())
		}
	}
	values := []jsonMetric{
		{Value: setup.Seconds(), Unit: "s"},
		{Value: wall.Seconds(), Unit: "s"},
		{Value: stats.Percentile(fcts, 99), Unit: "us"},
		{Value: float64(oc.attempted) / wall.Seconds(), Unit: "1/s"},
	}
	names := []string{"setup_s", "wall_s", "fct_p99_us", "flows_per_s"}
	res := jsonResult{Correct: oc.failed() == 0 && oc.delivery == "", Attempted: oc.attempted,
		Failed: oc.failed(), Metrics: map[string]jsonMetric{}}
	for i, n := range names {
		res.Metrics[n] = values[i]
		fmt.Fprintf(w, "  %-12s %14.6g %s\n", n, values[i].Value, values[i].Unit)
	}
	return res, nil
}
