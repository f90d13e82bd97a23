package predictor

import (
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/keycheck"
	"gopim/internal/reram"
)

// TestProfileKeyCoversSpec guards Generate's memo key: every
// ProfileSpec field must change profileKey when perturbed.
func TestProfileKeyCoversSpec(t *testing.T) {
	ddi, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	cora, err := graphgen.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	base := ProfileSpec{
		Chip: reram.DefaultChip(), Datasets: []graphgen.Dataset{ddi},
		Scales: []float64{0.5}, HiddenWidths: []int{64}, MicroBatches: []int{32},
		MaxVertices: 1000, NoiseFrac: 0.02, Seed: 1,
	}
	keycheck.Check(t, base, profileKey, nil, map[string][]func(*ProfileSpec){
		// A slice of structs: swap the dataset, edit one of its fields,
		// append another.
		"Datasets": {
			func(s *ProfileSpec) { s.Datasets = []graphgen.Dataset{cora} },
			func(s *ProfileSpec) {
				d := ddi
				d.HiddenCh++
				s.Datasets = []graphgen.Dataset{d}
			},
			func(s *ProfileSpec) { s.Datasets = []graphgen.Dataset{ddi, cora} },
		},
	})
}
