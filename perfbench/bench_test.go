package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpsim/internal/obs"
	"dcpsim/internal/stats"
)

// benchSpec is the part of ../BENCHMARK.json the tests check output against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the benchmark in-process and returns its exit code, its
// output and the decoded result line.
func runBench(t *testing.T, args ...string) (int, string, jsonResult) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--out", t.TempDir())
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit,
// in the result line and in the text report.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runBench(t, "--workload", w.Name, "--seed", "7", "--seconds", "0.01",
				"--size", "tiny", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%s: report does not print %s", w.Name, trace, m.Name)
				}
			}
			if trace == "1" && !strings.Contains(out, "tracing overhead:") {
				t.Errorf("%s: traced run prints no tracing overhead", w.Name)
			}
		}
	}
}

// TestSpanFile checks the traced run's span file is Chrome trace-event
// JSON that nests set-up, run and collection under each iteration.
func TestSpanFile(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "campaign_grid", "--seconds", "0.01", "--size", "tiny",
		"--trace", "1", "--out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "campaign_grid-seed1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	parents := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		parents[ev.Name] = ev.Args["parent"]
	}
	for name, parent := range map[string]string{
		"iteration": "", "workload.gen": "iteration", "campaign.parse": "iteration",
		"campaign.compile": "iteration", "campaign.run": "run", "campaign.render": "collect",
	} {
		if got, ok := parents[name]; !ok || got != parent {
			t.Errorf("span %s: parent %q (present %v), want %q", name, got, ok, parent)
		}
	}
}

// TestGateCatchesFailures shortens the simulated horizon until flows cannot
// finish: every workload must then report a failure fraction above zero,
// done_frac below one, and exit non-zero.
func TestGateCatchesFailures(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		code, out, res := runBench(t, "--workload", w.Name, "--seconds", "0.01", "--size", "tiny", "--horizon-us", "1")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v; want a failure\n%s", w.Name, code, res, out)
		}
		if d := res.Metrics["done_frac"].Value; d >= 1 {
			t.Errorf("%s: done_frac %g with flows unfinished", w.Name, d)
		}
		if !strings.Contains(out, "FAIL:") {
			t.Errorf("%s: report names no failure\n%s", w.Name, out)
		}
	}
}

// TestDeliveryCount feeds the delivery sink a stream in which one flow's
// retransmitted copy would make up for bytes another flow never got at the
// same NIC: the count must flag the short flow, then pass once its missing
// packet arrives.
func TestDeliveryCount(t *testing.T) {
	d := newDeliveryCount()
	var nic int64 // the destination NIC's running payload total
	deliver := func(flow uint64, psn uint32, payload int64) {
		nic += payload
		d.OnEvent(&obs.Event{Type: obs.EvDeliver, Node: 9, Flow: flow, PSN: psn, Aux: nic})
	}
	recs := []*stats.FlowRecord{{ID: 1, Dst: 9, Size: 2000}, {ID: 2, Dst: 9, Size: 2000}}
	deliver(1, 0, 1000)
	deliver(1, 1, 1000)
	deliver(1, 1, 1000) // a retransmitted copy
	deliver(2, 0, 1000)
	if got := d.mismatch(recs); !strings.Contains(got, "flow 2 delivered 1000") {
		t.Fatalf("mismatch = %q, want flow 2 short by a packet", got)
	}
	deliver(2, 1, 1000)
	if got := d.mismatch(recs); got != "" {
		t.Fatalf("mismatch = %q after every packet arrived", got)
	}
}

// TestLegacyMetrics checks the earlier benchmark's metric set still runs.
func TestLegacyMetrics(t *testing.T) {
	code, out, res := runBench(t, "--workload", legacyWorkload, "--size", "tiny")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, n := range []string{"setup_s", "wall_s", "fct_p99_us", "flows_per_s"} {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("missing %s", n)
		}
	}
}
