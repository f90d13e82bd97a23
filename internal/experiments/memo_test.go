package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gopim/internal/accel"
	"gopim/internal/fault"
	"gopim/internal/gcn"
	"gopim/internal/graphgen"
	"gopim/internal/keycheck"
	"gopim/internal/obs"
	"gopim/internal/predictor"
	"gopim/internal/simmemo"
	"gopim/internal/trace"
)

// simText renders the default registry's Sim section, dropping the
// simmemo.* and parallel.* counters when workOnly is set: those meter
// executed work, which is exactly what a memo hit elides.
func simText(t *testing.T, workOnly bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf, obs.Sim); err != nil {
		t.Fatal(err)
	}
	if !workOnly {
		return buf.String()
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "simmemo.") && !strings.HasPrefix(line, "parallel.") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestMemoReplayAllDomains calls each memo domain's entry point twice
// with the memo on (a miss, then a hit) and twice with it off, at tiny
// sizes: the Sim snapshots must match minus simmemo.* and parallel.*,
// and every domain must report a hit while on.
func TestMemoReplayAllDomains(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.Default().Reset()
	cora, err := graphgen.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	inst := cora.Synthesize(1, 120)
	spec := predictor.ProfileSpec{
		Datasets: []graphgen.Dataset{cora}, Scales: []float64{0.05},
		HiddenWidths: []int{16}, MicroBatches: []int{32, 64}, MaxVertices: 200, Seed: 1,
	}
	train, test := predictor.SplitTrainTest(predictor.Generate(spec), 0.2)
	linear := func() predictor.Regressor { return predictor.NewLinear() }
	faulty := fault.MustNew(fault.Config{Rate: 0.001, Seed: 1})

	domains := []struct {
		name  string
		heavy bool // trains a full shared predictor (~1 s per call)
		run   func()
	}{
		{"train", false, func() {
			gcn.TrainMemo("replay-test", inst, gcn.Config{Epochs: 2, Seed: 1, Fault: faulty})
		}},
		{"instance", false, func() { instanceFor(cora, 1, 120) }},
		{"accelrun", false, func() {
			accel.Run(accel.GoPIM, accel.Workload{Dataset: cora, Seed: 1, Fault: faulty})
		}},
		{"degmodel", false, func() { accel.DegModelFor(cora, 1) }},
		{"trace", false, func() {
			trace.Simulate(trace.Input{TimesNS: []float64{3, 1, 2}, Replicas: []int{1, 2, 1}, MicroBatches: 5})
		}},
		{"rmse", false, func() {
			predictor.ModelRMSECached(simmemo.Key(spec, "replay-test"), linear, train, test)
		}},
		{"profile", false, func() { predictor.Generate(spec) }},
		{"predictor", true, func() { SharedPredictor(Options{Seed: 90301, Fast: true}) }},
	}
	for _, d := range domains {
		t.Run(d.name, func(t *testing.T) {
			if d.heavy && (testing.Short() || raceDetectorEnabled) {
				t.Skip("trains full shared predictors")
			}
			twice := func(on bool) string {
				simmemo.SetEnabled(on)
				defer simmemo.SetEnabled(true)
				obs.Default().Reset()
				d.run()
				d.run()
				return simText(t, true)
			}
			on := twice(true)
			hits, all := "simmemo."+d.name+"_hits counter count=", simText(t, false)
			if !strings.Contains(all, hits) || strings.Contains(all, hits+"0\n") {
				t.Fatalf("no %s hit with the memo on", d.name)
			}
			if off := twice(false); on != off {
				t.Fatalf("Sim snapshots differ with the memo on and off:\non:\n%s\noff:\n%s", on, off)
			}
		})
	}
}

// TestSharedPredictorResetReplays: the shared predictor clears with
// the registry like every memo domain, so two reset-separated runs
// leave byte-identical Sim snapshots.
func TestSharedPredictorResetReplays(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("trains full shared predictors")
	}
	defer obs.Default().Reset()
	run := func() string {
		obs.Default().Reset()
		SharedPredictor(Options{Seed: 90401, Fast: true})
		return simText(t, false)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("Sim snapshots differ across a registry reset:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestPredictorKeyCoversOptions guards the shared predictor's key.
func TestPredictorKeyCoversOptions(t *testing.T) {
	keycheck.Check(t, Options{Seed: 1, Fast: true}, predictorKey, nil, nil)
}

// TestInstanceKeyCoversInputs guards the instance key over its whole
// (Dataset, seed, maxV) input.
func TestInstanceKeyCoversInputs(t *testing.T) {
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	type in struct {
		Dataset graphgen.Dataset
		Seed    int64
		MaxV    int
	}
	keycheck.Check(t, in{d, 1, 100}, func(i in) string { return InstanceKey(i.Dataset, i.Seed, i.MaxV) }, nil, nil)
}
