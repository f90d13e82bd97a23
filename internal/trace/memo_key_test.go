package trace

import (
	"testing"

	"gopim/internal/keycheck"
)

// TestMemoKeyCoversInput guards the schedule memo key: every Input
// field must change memoKey when perturbed.
func TestMemoKeyCoversInput(t *testing.T) {
	base := Input{TimesNS: []float64{1, 2}, Replicas: []int{1, 2}, MicroBatches: 4, MicroBatchesPerBatch: 2}
	keycheck.Check(t, base, memoKey, nil, nil)
	big := Input{TimesNS: make([]float64, 2), MicroBatches: memoMaxEvents}
	if memoKey(big) != "" {
		t.Fatal("schedules above memoMaxEvents must not be memoized")
	}
}
