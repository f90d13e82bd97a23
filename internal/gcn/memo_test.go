package gcn

import (
	"math"
	"testing"

	"gopim/internal/fault"
	"gopim/internal/keycheck"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// TestTrainMemoReplaysResultAndCounters pins the TrainMemo contract: a
// hit returns the first run's Result and leaves every Sim counter
// exactly where a fresh training would have — byte-identical
// snapshots with the memo on or off.
func TestTrainMemoReplaysResultAndCounters(t *testing.T) {
	obs.Default().Reset() // clears metrics and, via the simmemo hook, the train cache
	defer obs.Default().Reset()
	inst := smallNodeInstance(t, 120)
	cfg := Config{Epochs: 4, Seed: 3, LR: 0.01}

	r1 := TrainMemo("memo-test-inst", inst, cfg)
	runs1, epochs1 := mTrainRuns.Value(), mEpochs.Value()
	r2 := TrainMemo("memo-test-inst", inst, cfg)
	if mTrainRuns.Value() != 2*runs1 || mEpochs.Value() != 2*epochs1 {
		t.Fatalf("hit must replay counters: runs %d→%d, epochs %d→%d",
			runs1, mTrainRuns.Value(), epochs1, mEpochs.Value())
	}
	if r1.Accuracy != r2.Accuracy || len(r1.TrainLoss) != len(r2.TrainLoss) {
		t.Fatalf("hit result differs: %+v vs %+v", r1, r2)
	}
	for i := range r1.TrainLoss {
		if math.Float64bits(r1.TrainLoss[i]) != math.Float64bits(r2.TrainLoss[i]) {
			t.Fatalf("loss[%d] differs bitwise", i)
		}
	}

	// A different config is a different key: it must retrain, and the
	// two variants must not bleed into each other.
	cfg2 := cfg
	cfg2.Seed = 4
	r3 := TrainMemo("memo-test-inst", inst, cfg2)
	if mTrainRuns.Value() != 3*runs1 {
		t.Fatal("distinct config must miss and retrain")
	}
	if r3.Accuracy == r1.Accuracy && r3.TrainLoss[0] == r1.TrainLoss[0] {
		t.Fatal("distinct seed produced an identical run — key collision?")
	}

	// Memo results must be bit-identical to the plain path.
	plain := Train(inst, cfg)
	if math.Float64bits(plain.Accuracy) != math.Float64bits(r1.Accuracy) {
		t.Fatalf("memoized accuracy %v != plain %v", r1.Accuracy, plain.Accuracy)
	}
}

// TestTrainMemoDisabledAndKeyless: both opt-outs take the plain path
// and never consult the cache.
func TestTrainMemoDisabledAndKeyless(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	inst := smallNodeInstance(t, 120)
	cfg := Config{Epochs: 2, Seed: 5, LR: 0.01}

	simmemo.SetEnabled(false)
	TrainMemo("k", inst, cfg)
	TrainMemo("k", inst, cfg)
	simmemo.SetEnabled(true)
	if h := trainCache.Hits(); h != 0 {
		t.Fatalf("disabled TrainMemo must bypass the cache, saw %d hits", h)
	}

	TrainMemo("", inst, cfg)
	TrainMemo("", inst, cfg)
	if h := trainCache.Hits(); h != 0 {
		t.Fatalf("keyless TrainMemo must bypass the cache, saw %d hits", h)
	}
}

// TestFingerprintCoversConfig guards the training memo key: every
// Config field must change memoKey when perturbed, so a field added
// without extending the key fails here instead of silently reusing a
// stale training cell.
func TestFingerprintCoversConfig(t *testing.T) {
	base := Config{
		Epochs: 3, LR: 0.01, Dropout: 0.5, Seed: 1, QuantBits: 16,
		Plan: &mapping.UpdatePlan{Important: []bool{true, false}, Theta: 0.5, StalePeriod: 2},
	}
	faulty := func(cfg fault.Config) func(*Config) {
		return func(c *Config) { c.Fault = fault.MustNew(cfg) }
	}
	key := func(c Config) string { return memoKey("inst", c) }
	keycheck.Check(t, base, key, nil, map[string][]func(*Config){
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
