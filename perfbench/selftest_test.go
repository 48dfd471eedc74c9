package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinyScale keeps the self-test to a few seconds.
var tinyScale = scale{campusFlows: 60, videoSessions: 3, videoFrames: 1500}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile pins the metric and workload catalog
// the program reports against BENCHMARK.json, so a renamed metric cannot
// silently drop out of either.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.defs))
		}
		for i, m := range c.file {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json has %s %s %s, the program %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.name)
		}
	}
}

// TestTinyRun runs every workload at a tiny scale in both modes and
// checks that each metric BENCHMARK.json names is emitted with its unit
// and that every output check passes.
func TestTinyRun(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			rep, err := run(options{workload: w.Name, seed: 7, trace: trace, scale: tinyScale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", scale: tinyScale}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
