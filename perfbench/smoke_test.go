package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"netsession/internal/telemetry"
)

// TestSmokeEveryWorkload runs each workload at smoke-test scale, untraced
// and traced, and checks that the run is correct and reports exactly the
// named metrics, each with its unit and at least one sample.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 7, seconds: time.Millisecond, trace: trace, tiny: true}
				out, ok, err := runWorkload(wl, e, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("run not correct:\n%s", out)
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				want := e2eMetrics
				if trace {
					want = layerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok || m.Value == nil {
						t.Errorf("metric %s missing", n)
						continue
					}
					if m.Unit != units[n] {
						t.Errorf("metric %s unit %q, want %q", n, m.Unit, units[n])
					}
					if got := e.res.metrics[n].N; got < 1 {
						t.Errorf("metric %s has %d samples", n, got)
					}
					if !strings.Contains(out, "metric "+n+" ") {
						t.Errorf("metric %s missing from the printed table", n)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
					t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// step: the same workloads and reasons, and exactly the metrics every
// workload reports, each declared once with its unit.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []def                        `json:"end_to_end"`
		PerLayer  []def                        `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, table has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, defs []def, reported []string) {
		if len(defs) != len(reported) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the table %d", len(defs), kind, len(reported))
		}
		declared := map[string]bool{}
		for _, d := range defs {
			if declared[d.Name] {
				t.Errorf("%s metric %s declared twice", kind, d.Name)
			}
			declared[d.Name] = true
			if d.Unit != units[d.Name] {
				t.Errorf("%s metric %s: unit %q, table %q", kind, d.Name, d.Unit, units[d.Name])
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %s: better %q", kind, d.Name, d.Better)
			}
		}
		for _, n := range reported {
			if !declared[n] {
				t.Errorf("every workload reports %s metric %s, not in BENCHMARK.json", kind, n)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	var setupBound, maxBound float64
	for _, d := range b.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			continue
		}
		maxBound = max(maxBound, *d.Bound)
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

func histSnapshot(bounds []float64, buckets []int64, sum float64) telemetry.HistogramSnapshot {
	var n int64
	for _, c := range buckets {
		n += c
	}
	return telemetry.HistogramSnapshot{Count: n, Sum: sum, Bounds: bounds, Buckets: buckets}
}
