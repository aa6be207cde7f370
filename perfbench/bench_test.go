package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs one workload at a small scale and a short window.
func smoke(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(config{
		workload: workload,
		seed:     seed,
		seconds:  0.05,
		traced:   traced,
		scale:    0.02,
		workdir:  t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (traced %v): correct=%v attempted=%d failed=%d notes=%q",
			workload, traced, res.Correct, res.Attempted, res.Failed, res.notes)
	}
	return res
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryMetricEmitted checks that every workload of BENCHMARK.json
// emits exactly the metrics the file declares, with their units: the
// end-to-end metrics untraced (all of them non-zero) and the per-layer
// metrics traced.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := smoke(t, w.Name, 1, traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (traced %v): %s has unit %q, declared %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
}

// countMetrics are the per-layer metrics that depend only on the inputs.
var countMetrics = []string{
	"surface.qpoints", "system.bytes",
	"ilist.bytes", "ilist.born.far_entries", "ilist.born.near_pairs",
	"ilist.epol.far_entries", "ilist.epol.near_pairs",
	"born.ops", "epol.ops", "octree.moved_atoms", "cluster.bytes_sent",
}

// TestDeterministicCounts checks that a seed fixes the inputs: two traced
// runs with one seed report identical counts, and another seed changes
// them.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := smoke(t, w, 7, true), smoke(t, w, 7, true)
		other := smoke(t, w, 8, true)
		changed := false
		for _, name := range countMetrics {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between runs with one seed: %v vs %v",
					w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
			if a.Metrics[name] != other.Metrics[name] {
				changed = true
			}
		}
		if !changed {
			t.Errorf("%s: seeds 7 and 8 gave identical counts", w)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); v != 20 || label != "p66" {
		t.Errorf("tail of 1..30 = %v (%s), want 20 (p66): ten samples beyond it", v, label)
	}
	if v, _ := tail(xs[:20]); v != 20 {
		t.Errorf("tail of 1..20 = %v, want the maximum: no percentile at or above the median has ten samples beyond it", v)
	}
}
