package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The plan cache check counts one miss per distinct key, so planKeys
// must never emit the same request twice, and every key must appear in
// the sequence.
func TestPlanKeysDistinctAndAllRequested(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := planKeys(rng)
		if len(keys) != planRounds*planKeysPerRound {
			t.Fatalf("seed %d: %d keys, want %d rounds of %d", seed, len(keys), planRounds, planKeysPerRound)
		}
		seen := map[string]bool{}
		for _, k := range keys {
			b, err := json.Marshal(k)
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(b)] {
				t.Fatalf("seed %d: duplicate key %s", seed, b)
			}
			seen[string(b)] = true
		}
		seq := planSequence(rng, len(keys))
		if len(seq) != planRequests {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(seq), planRequests)
		}
		requested := map[int]bool{}
		for _, i := range seq {
			requested[i] = true
		}
		if len(requested) != len(keys) {
			t.Fatalf("seed %d: %d of %d keys requested", seed, len(requested), len(keys))
		}
	}
}

// The layer suite probes one plain key per graph of the first round.
func TestPlanShapes(t *testing.T) {
	if got := len(planShapes(1)); got != 12 {
		t.Fatalf("%d plan shapes, want 12 (4 catalog datasets, 8 custom graphs)", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// Every workload reports the same metrics, so the names the benchmark
// emits must be exactly the ones BENCHMARK.json declares.
func TestManifestNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	metrics, _ := endToEnd([]iteration{{}}, []float64{1})
	for name, v := range metrics {
		e2e[name] = v.Unit
	}
	var layers []layerMetric
	for _, n := range suiteLayers {
		layers = append(layers, layerMetric{Name: n, Unit: "ms"})
	}
	layers = append(layers, runtimeLayers(runtime.MemStats{}, runtime.MemStats{})...)
	perLayer := map[string]string{}
	for _, l := range layers {
		perLayer[l.Name] = l.Unit
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  map[string]string
	}{{"end_to_end", m.EndToEnd, e2e}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", c.what, len(c.declared), len(c.emitted))
		}
		for _, d := range c.declared {
			if unit, ok := c.emitted[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s in %s is declared but emitted as %q", c.what, d.Name, d.Unit, unit)
			}
		}
	}
}
