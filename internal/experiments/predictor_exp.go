package experiments

import (
	"fmt"

	"gopim/internal/accel"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/predictor"
	"gopim/internal/reram"
	"gopim/internal/singleflight"
	"gopim/internal/stage"
)

// Cache metrics for the shared time predictor. Both counts are
// deterministic despite the concurrent fan-out: the single-flight
// cache runs exactly one training per Options key — every concurrent
// caller for that key coalesces onto it and counts as a hit — so the
// totals depend only on which experiments run, never on scheduling or
// worker count.
var (
	mPredCacheHits = obs.NewCounter("experiments.predictor_cache_hits", obs.Sim,
		"shared-predictor lookups answered from the cache")
	mPredCacheMisses = obs.NewCounter("experiments.predictor_cache_misses", obs.Sim,
		"shared-predictor lookups that trained a new model")
)

func init() {
	register("fig9", fig9)
}

// profileSpec builds the predictor's profile-generation sweep. The
// full-mode sweep is sized to the paper's ~2 200-sample profile corpus
// (§V-A); Fast mode shrinks it further for smoke runs.
func profileSpec(opt Options) predictor.ProfileSpec {
	spec := predictor.ProfileSpec{
		Seed:         opt.Seed,
		Scales:       []float64{0.2, 1.0},
		HiddenWidths: []int{64, 128, 256},
		MicroBatches: []int{16, 32, 64, 128},
		MaxVertices:  150_000,
	}
	if opt.Fast {
		spec.Datasets = fastDatasets("ddi", "collab", "Cora")
		spec.Scales = []float64{0.2, 1}
		spec.HiddenWidths = []int{64, 256}
		spec.MicroBatches = []int{32, 64}
		spec.MaxVertices = 20_000
	}
	return spec
}

func fastDatasets(names ...string) []graphgen.Dataset {
	out := make([]graphgen.Dataset, 0, len(names))
	for _, n := range names {
		d, err := graphgen.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

// fig9 reproduces the predictor bake-off: (a) RMSE across model
// families, (b) RMSE vs MLP depth, (c) RMSE vs hidden width.
func fig9(opt Options) (*Result, error) {
	spec := profileSpec(opt)
	samples := predictor.Generate(spec)
	train, test := predictor.SplitTrainTest(samples, 0.2)
	// The RMSE memo key must determine (model, train, test): the spec
	// fingerprint pins the profile corpus (and with it the 8:2 split),
	// the suffix pins the model variant. VariantKey canonicalises the
	// suffix, so the three sweep axes that all name the default MLP
	// (family "MLP", 3 layers, 256 neurons) train once and share.
	specKey := fmt.Sprintf("%+v", spec)

	res := &Result{
		ID:     "fig9",
		Title:  "Execution-time predictor comparison (RMSE, normalised log-time)",
		Paper:  "MLP beats XGB/SVR/DT/LR/BR; 3 layers best; 256 hidden neurons best; RMSE ≈ 0.0022",
		Header: []string{"variant", "model", "RMSE"},
	}

	// One cell per table row, in display order.
	type cell struct {
		axis, label, variant string
		mk                   func() predictor.Regressor
	}
	var cells []cell

	// (a) model families.
	for _, m := range predictor.Fig9Models() {
		cells = append(cells, cell{"(a) family", m.Name, "family:" + m.Name, m.New})
	}

	// (b) MLP depth sweep 2–6 total layers.
	depths := []int{2, 3, 4, 5, 6}
	if opt.Fast {
		depths = []int{2, 3, 4}
	}
	for _, depth := range depths {
		d := depth
		cells = append(cells, cell{"(b) depth", fmt.Sprintf("%d layers", d), fmt.Sprintf("depth:%d", d),
			func() predictor.Regressor { return predictor.MLPWithDepth(d) }})
	}

	// (c) hidden width sweep for the 3-layer MLP.
	widths := []int{32, 64, 128, 256, 512, 1024}
	if opt.Fast {
		widths = []int{32, 256}
	}
	for _, width := range widths {
		w := width
		cells = append(cells, cell{"(c) width", fmt.Sprintf("%d neurons", w), fmt.Sprintf("width:%d", w),
			func() predictor.Regressor { return predictor.MLPWithWidth(w) }})
	}

	// Cells are independent (models seed themselves), so they fan out
	// across workers as predictor.FeatureAblation does. Cells that name
	// the same model share one memo entry; a coalesced wait counts as a
	// hit, so the Sim totals match a serial sweep.
	rmses := parallel.Map(len(cells), func(i int) float64 {
		c := cells[i]
		return predictor.ModelRMSECached(specKey+"|"+predictor.VariantKey(c.variant, c.mk), c.mk, train, test)
	})
	for i, c := range cells {
		res.Rows = append(res.Rows, []string{c.axis, c.label, fmtF(rmses[i])})
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("profile dataset: %d samples (train %d / test %d), 8:2 split as in the paper", len(samples), len(train), len(test)),
		"RMSE is measured on min-max-normalised log stage times; stage latencies span four orders of magnitude.")
	return res, nil
}

// sharedPredictors caches one trained time predictor per (mode, seed)
// so that tab7, the CLI's "all" run and the serve daemon don't retrain
// repeatedly. Misses coalesce per key: concurrent callers for the same
// Options share one training run, while different keys train in
// parallel — the old design held a single mutex across training, so
// independent keys serialized behind whichever training ran first.
var sharedPredictors = singleflight.New[Options, *predictor.TimePredictor](0)

// trainSharedPredictor trains (or reuses) the MLP time predictor on
// the profile sweep. The trained predictor is read-only and safe for
// concurrent Predict calls.
func trainSharedPredictor(opt Options) *predictor.TimePredictor {
	p, hit := sharedPredictors.Do(opt, func() *predictor.TimePredictor {
		mPredCacheMisses.Inc()
		sp := obs.StartSpan("predictor.train")
		defer sp.End()
		p := predictor.NewTimePredictor()
		p.Train(predictor.Generate(profileSpec(opt)))
		return p
	})
	if hit {
		mPredCacheHits.Inc()
	}
	return p
}

// SharedPredictor exposes the per-Options predictor cache to other
// packages (the serve daemon plans requests against the same shared
// immutable model the experiments use).
func SharedPredictor(opt Options) *predictor.TimePredictor {
	return trainSharedPredictor(opt)
}

// predictTimesFor produces the predictor's stage-time estimates for an
// accelerator workload (full-update stage structure, as profiled).
func predictTimesFor(p *predictor.TimePredictor, w accel.Workload) []float64 {
	mb := w.MicroBatch
	if mb == 0 {
		mb = 64
	}
	deg := w.Deg
	if deg == nil {
		deg = accel.DegModelFor(w.Dataset, w.Seed)
	}
	return p.PredictTimes(stage.Config{
		Chip:       reram.DefaultChip(),
		Dataset:    w.Dataset,
		Deg:        deg,
		MicroBatch: mb,
	})
}
