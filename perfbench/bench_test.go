package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload so the smoke test runs in seconds.
var tinySizes = sizes{
	scaleNodes:      map[string]int{"gossip": 2000, "swarm": 5000, "token": 2000, "scrip": 2000, "coding": 2000},
	sweepReplicates: 1,
	sweepPoints:     2,
	prefill:         8,
}

func tinyParams() params {
	return params{seed: 7, seconds: time.Second, sizes: tinySizes}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric lists the runner emits
// to the ones BENCHMARK.json declares, names and units both.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		t.Helper()
		if len(want) != len(got) {
			t.Errorf("%s: runner has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := 0; i < len(want) && i < len(got); i++ {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: runner %s [%s], BENCHMARK.json %s [%s]", kind, i, want[i].name, want[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny sizes, untraced and
// traced, and checks that the result names every metric, that the outputs
// pass their checks, and that a traced run leaves spans for each layer.
func TestEveryMetricEmitted(t *testing.T) {
	layerSpans := map[string][]string{
		"scale":   {"sim.build.swarm", "sim.step.gossip", "sim.snapshot.scrip", "sign.partner"},
		"sweep":   {"scenario.point", "scenario.assemble", "sim.fold_window", "sim.replicate.token", "metrics.encode"},
		"service": {"service.job", "serve.submit", "serve.read.disk", "serve.read.remote", "cluster.unit", "cluster.store", "metrics.encode"},
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, env, tr, err := execute(name, run, tinyParams(), traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s missing or wrong unit (%+v)", traced, d.name, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				for _, k := range []string{"nproc", "gomaxprocs", "go", "commit", "cpu_model", "l3_bytes"} {
					if _, ok := env[k]; !ok {
						t.Errorf("environment record lacks %s", k)
					}
				}
				if traced {
					for _, s := range layerSpans[name] {
						if len(tr.durations(s)) == 0 {
							t.Errorf("traced run recorded no %s span", s)
						}
					}
				}
			}
		})
	}
}

// TestCorruptedDigestCaught checks that a pinned digest that does not match
// the output fails the run, for both workloads with pins.
func TestCorruptedDigestCaught(t *testing.T) {
	for _, name := range []string{"scale", "sweep"} {
		t.Run(name, func(t *testing.T) {
			p := tinyParams()
			p.pins = map[string]string{}
			first := workloads[name](p, nil)
			// With an empty pin table every item is reported, with its digest.
			got := map[string]string{}
			for _, msg := range first.problems {
				key, rest, _ := strings.Cut(msg, ": no pinned digest (got ")
				got[key] = strings.TrimSuffix(rest, ")")
			}
			if len(got) == 0 {
				t.Fatalf("no digests reported: %v", first.problems)
			}
			if again := workloads[name](withPins(p, got), nil); len(again.problems) != 0 {
				t.Fatalf("correct pins failed: %v", again.problems)
			}
			for key := range got {
				bad := map[string]string{}
				for k, v := range got {
					bad[k] = v
				}
				bad[key] = "sha256:" + strings.Repeat("0", 64)
				res, _, _, err := execute(name, workloads[name], withPins(p, bad), false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Correct || res.Failed != 1 {
					t.Errorf("corrupted pin %s: correct=%v failed=%d, want a single failure", key, res.Correct, res.Failed)
				}
				break
			}
		})
	}
}

func withPins(p params, pins map[string]string) params {
	p.pins = pins
	return p
}

func TestParseExposition(t *testing.T) {
	total := map[string]float64{}
	text := "# HELP x y\n# TYPE lotus_jobs_total counter\nlotus_jobs_total{status=\"done\"} 3\nlotus_jobs_total{status=\"failed\"} 1\nlotus_cache_hits_total 7\n"
	if err := parseExposition([]byte(text), total); err != nil {
		t.Fatal(err)
	}
	if total["lotus_jobs_total"] != 4 || total["lotus_cache_hits_total"] != 7 {
		t.Errorf("parsed %v", total)
	}
	for _, bad := range []string{"lotus_x{a=\"b\" 1\n", "lotus_x\n", "lotus_x one\n"} {
		if err := parseExposition([]byte(bad), map[string]float64{}); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
