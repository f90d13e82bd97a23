package accel

import (
	"testing"

	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/keycheck"
	"gopim/internal/reram"
)

// TestRunKeyCoversWorkload guards Run's memo key: every Workload field
// must change runMemoKey when perturbed, unless exempted below with its
// reason, so a field added without extending the key fails here
// instead of silently reusing a stale simulation.
func TestRunKeyCoversWorkload(t *testing.T) {
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	base := Workload{
		Chip: reram.DefaultChip(), Dataset: d, Seed: 1,
		MicroBatch: 64, MicroBatchesPerBatch: 8,
		PredictedTimes: []float64{1, 2}, ThetaOverride: 0.5,
	}
	key := func(w Workload) string { return runMemoKey(GoPIM, w) }
	faulty := func(cfg fault.Config) func(*Workload) {
		return func(w *Workload) { w.Fault = fault.MustNew(cfg) }
	}
	keycheck.Check(t, base, key, map[string]string{
		"Deg": "a non-nil degree model bypasses the memo; nil is synthesized from (Dataset, Seed)",
	}, map[string][]func(*Workload){
		// *fault.Model hides its Config; its MemoKey encodes it in full.
		"Fault": {
			faulty(fault.Config{Rate: 0.01, Seed: 1}),
			faulty(fault.Config{Rate: 0.02, Seed: 1}),
			faulty(fault.Config{Rate: 0.01, Seed: 2}),
			faulty(fault.Config{Rate: 0.01, Seed: 1, VerifyMax: 3}),
			faulty(fault.Config{Rate: 0.01, Seed: 1, RetireThreshold: 0.5}),
			faulty(fault.Config{Rate: 0.01, Seed: 1, WearWritesPerCell: 1e9}),
		},
	})
}

// TestDegKeyCoversInputs guards DegModelFor's memo key over its whole
// (Dataset, seed) input.
func TestDegKeyCoversInputs(t *testing.T) {
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	type in struct {
		Dataset graphgen.Dataset
		Seed    int64
	}
	keycheck.Check(t, in{d, 1}, func(i in) string { return degKey(i.Dataset, i.Seed) }, nil, nil)
}
