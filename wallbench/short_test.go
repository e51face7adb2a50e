package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test holds the
// program to: the workloads with their reasons, and every metric by
// name and unit.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortModeEmitsEveryMetric runs every workload at tiny size,
// untraced and traced, and requires exactly the metrics BENCHMARK.json
// declares, each with its unit, plus correct results and the exact
// storage overhead of each layout.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	overhead := map[string]float64{"stream-64m": 1, "overlap-atomic": 1, "ckpt-restore": 1.5}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(options{workload: w.Name, seed: 1, seconds: 1, trace: trace, short: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if !trace {
				if got := res.Metrics["stored_bytes_per_user_byte"].Value; got != overhead[w.Name] {
					t.Errorf("%s: stored_bytes_per_user_byte = %v, want %v", w.Name, got, overhead[w.Name])
				}
			}
		}
	}
}
