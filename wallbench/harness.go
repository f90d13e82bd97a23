package main

// gcn_train and predictor_fit: experiments.RunAll over three harnesses
// at -fast scale, as `gopim -fast <ids>` runs them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"gopim/internal/experiments"
	"gopim/internal/graphgen"
	"gopim/internal/mlp"
	"gopim/internal/obs"
	"gopim/internal/predictor"
	"gopim/internal/simmemo"
	"gopim/internal/sparsemat"
	"gopim/internal/spmm"
	"gopim/internal/tensor"
)

func init() {
	register(&workload{
		name: "gcn_train", ops: "experiments", op: "one experiment's wall time",
		run:    func(c *child) (iterResult, error) { return runHarness(c, []string{"tab5", "cora", "fig16"}, gcnProbes) },
		shapes: gcnShapes, suiteMoves: "wall_s, op_p99_ms",
	})
	register(&workload{
		name: "predictor_fit", ops: "experiments", op: "one experiment's wall time",
		run: func(c *child) (iterResult, error) {
			return runHarness(c, []string{"fig9", "gen", "tab7"}, predictorProbes)
		},
		shapes: predictorShapes, suiteMoves: "wall_s, op_p99_ms",
	})
}

// runHarness runs the experiments at the default worker count and
// digests their rendered tables. A traced iteration also records the
// harness walls and Sim counters, then runs the layer probes.
func runHarness(c *child, ids []string, probes func(c *child, res *iterResult)) (iterResult, error) {
	opt := experiments.Options{Seed: c.seed, Fast: true}
	var mu sync.Mutex
	walls := map[string]float64{}
	hooks := experiments.RunHooks{OnDone: func(id string, wall time.Duration, _ error) {
		mu.Lock()
		walls[id] = wall.Seconds()
		mu.Unlock()
	}}
	if c.traced {
		obs.SetEnabled(true) // arms gcn's per-epoch timer
	}
	if !c.ready() {
		return iterResult{}, nil
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	results, err := experiments.RunAllWithHooks(ids, opt, hooks)
	wall := time.Since(t0).Seconds()
	res := iterResult{WallS: wall, CPUS: c.cpuSince(), Attempted: len(ids)}
	var out bytes.Buffer
	for _, r := range results {
		if r == nil {
			res.Failed++
			continue
		}
		if rerr := r.Render(&out); rerr != nil {
			return res, rerr
		}
	}
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	for _, id := range ids {
		res.OpMS = append(res.OpMS, walls[id]*1e3)
	}
	if c.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		for _, id := range ids {
			res.Report = append(res.Report, layerMetric{"experiments." + id + "_s", walls[id], "s", "wall_s, op_p99_ms"})
		}
		probes(c, &res)
		res.Layers = runtimeLayers(ms0, ms1)
	}
	return res, nil
}

// runtimeLayers reports the Go runtime's allocation volume and GC
// cycles over the measured work.
func runtimeLayers(ms0, ms1 runtime.MemStats) []layerMetric {
	return []layerMetric{
		{"runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), "MB", "wall_s, max_rss_mb"},
		{"runtime.gc_cycles", float64(ms1.NumGC - ms0.NumGC), "count", "wall_s, max_rss_mb"},
	}
}

// gcnShapes are the graphs gcn_train's harnesses train on at -fast
// scale: tab5's five evaluation datasets (capped at 50k paper vertices)
// plus Cora, each with seed opt.Seed+len(name) — the arguments
// experiments.trainPair synthesizes its 300-vertex instances with.
func gcnShapes(seed int64) []shape {
	ds := graphgen.EvalFive()
	for i := range ds {
		if ds[i].PaperVertices > 50_000 {
			ds[i].PaperVertices = 50_000
		}
	}
	cora, err := graphgen.ByName("Cora")
	if err != nil {
		panic(err)
	}
	var out []shape
	for _, d := range append(ds, cora) {
		out = append(out, shape{d: d, seed: seed + int64(len(d.Name))})
	}
	return out
}

// epochShapes holds one training epoch's GEMM and SpMM operands for an
// instance, shaped as gcn.Train allocates them.
type epochShapes struct {
	adj, adjT         *sparsemat.CSR
	inputs, weights   []*tensor.Matrix
	combined, dC, dIn []*tensor.Matrix
	grads, agg, dAgg  []*tensor.Matrix
	layers            int
	strategy          spmm.Strategy
}

func newEpochShapes(inst *graphgen.Instance, seed int64) *epochShapes {
	d := inst.Dataset
	dims := []int{inst.Features.Cols}
	for l := 1; l <= d.Layers; l++ {
		w := d.HiddenCh
		if l == d.Layers {
			if d.Task == graphgen.NodeClassification {
				w = d.NumClasses
			} else {
				w = d.OutputCh
			}
		}
		dims = append(dims, w)
	}
	n := inst.Features.Rows
	rng := rand.New(rand.NewSource(seed))
	e := &epochShapes{adj: inst.Graph.NormAdj(), adjT: inst.Graph.NormAdjT(), layers: d.Layers}
	e.strategy = spmm.For(e.adj)
	for l := 0; l < d.Layers; l++ {
		in := inst.Features
		if l > 0 {
			// Hidden inputs are post-ReLU activations: about half zero,
			// which the GEMM's zero-skip sees.
			in = tensor.NewRandom(rng, n, dims[l], 1)
			in.ReLUInPlace()
		}
		e.inputs = append(e.inputs, in)
		e.weights = append(e.weights, tensor.NewGlorot(rng, dims[l], dims[l+1]))
		e.combined = append(e.combined, tensor.New(n, dims[l+1]))
		e.agg = append(e.agg, tensor.New(n, dims[l+1]))
		e.dC = append(e.dC, tensor.NewRandom(rng, n, dims[l+1], 1))
		e.dAgg = append(e.dAgg, tensor.New(n, dims[l+1]))
		e.dIn = append(e.dIn, tensor.New(n, dims[l]))
		e.grads = append(e.grads, tensor.New(dims[l], dims[l+1]))
	}
	return e
}

func (e *epochShapes) matmul() {
	for l := 0; l < e.layers; l++ {
		tensor.MatMulInto(e.combined[l], e.inputs[l], e.weights[l])
	}
}

func (e *epochShapes) matmulTN() {
	for l := 0; l < e.layers; l++ {
		tensor.MatMulTNInto(e.grads[l], e.inputs[l], e.dC[l])
	}
}

func (e *epochShapes) matmulNT() {
	for l := 1; l < e.layers; l++ {
		tensor.MatMulNTInto(e.dIn[l], e.dC[l], e.weights[l])
	}
}

func (e *epochShapes) spmm() {
	for l := 0; l < e.layers; l++ {
		spmm.MulInto(e.strategy, e.adj, e.agg[l], e.combined[l])
		spmm.MulInto(e.strategy, e.adjT, e.dAgg[l], e.dC[l])
	}
}

// gcnProbes reports the program's own counters for the GCN sweep and
// scales the layer suite's kernel probes — one epoch's GEMM and SpMM
// calls per instance, averaged over instances — by the epochs the
// program ran.
func gcnProbes(c *child, res *iterResult) {
	epochs := simField("gcn.epoch_ns", "count") // epochs executed, memo hits excluded
	epochMS := 0.0
	if epochs > 0 {
		epochMS = simField("gcn.epoch_ns", "sum") / epochs / 1e6
	}
	instances := simCounter("simmemo.instance_misses")
	res.Report = append(res.Report,
		layerMetric{"simmemo.train_hit_ratio", hitRatio("train"), "ratio", "wall_s"},
		layerMetric{"simmemo.instance_hit_ratio", hitRatio("instance"), "ratio", "wall_s"},
		layerMetric{"gcn.trainings", simCounter("simmemo.train_misses"), "count", "wall_s"},
		layerMetric{"gcn.epoch_ms", epochMS, "ms", "wall_s"},
		layerMetric{"parallel.for_calls", simCounter("parallel.for_calls"), "count", "wall_s"},
	)
	s := c.suite()
	res.Share = []shareRow{
		{"tensor (GEMM)", "suite's one-epoch MatMul+TN+NT per instance × epochs executed",
			(s["tensor.matmul_ms"] + s["tensor.matmul_tn_ms"] + s["tensor.matmul_nt_ms"]) * epochs},
		{"spmm", "suite's one-epoch Â/Âᵀ SpMM per instance × epochs executed", s["spmm.mul_ms"] * epochs},
		{"graphgen", "suite's synthesis per instance × simmemo.instance_misses", s["graphgen.synthesize_ms"] * instances},
	}
}

// fastProfileSpec mirrors the -fast profile sweep experiments feeds the
// predictor harnesses (experiments.profileSpec).
func fastProfileSpec(seed int64) predictor.ProfileSpec {
	var ds []graphgen.Dataset
	for _, n := range []string{"ddi", "collab", "Cora"} {
		d, err := graphgen.ByName(n)
		if err != nil {
			panic(err)
		}
		ds = append(ds, d)
	}
	return predictor.ProfileSpec{
		Seed:         seed,
		Datasets:     ds,
		Scales:       []float64{0.2, 1},
		HiddenWidths: []int{64, 256},
		MicroBatches: []int{32, 64},
		MaxVertices:  20_000,
	}
}

// predictorShapes are the graphs of predictor_fit's profile sweep,
// capped at the sweep's MaxVertices as its generation caps them.
func predictorShapes(seed int64) []shape {
	spec := fastProfileSpec(seed)
	var out []shape
	for _, d := range spec.Datasets {
		d.PaperVertices = min(d.PaperVertices, spec.MaxVertices)
		out = append(out, shape{d: d, seed: seed})
	}
	return out
}

// predictorProbes times the predictor layers on the workload's own
// profile corpus: generation, each Fig. 9 model family's fit, one MLP
// training step and one batch-16 GEMM.
func predictorProbes(c *child, res *iterResult) {
	res.Report = append(res.Report,
		layerMetric{"simmemo.rmse_hit_ratio", hitRatio("rmse"), "ratio", "wall_s"},
		layerMetric{"simmemo.profile_hit_ratio", hitRatio("profile"), "ratio", "wall_s"},
	)
	profiles := simCounter("simmemo.profile_misses")
	trainMS := simField("predictor.train_ns", "sum") / 1e6 // executed trainings only

	defer simmemo.SetEnabled(simmemo.Enabled())
	simmemo.SetEnabled(false)
	var samples []predictor.Sample
	genMS := timeIt(func() { samples = predictor.Generate(fastProfileSpec(c.seed)) })
	res.Report = append(res.Report, layerMetric{"predictor.generate_ms", genMS, "ms", "wall_s"})
	train, test := predictor.SplitTrainTest(samples, 0.2)
	for _, m := range predictor.Fig9Models() {
		ms := timeIt(func() { predictor.ModelRMSE(m.New, train, test) })
		res.Report = append(res.Report, layerMetric{"predictor." + strings.ToLower(m.Name) + "_fit_ms", ms, "ms", "wall_s"})
	}

	rng := rand.New(rand.NewSource(c.seed))
	net := mlp.New(rng, 10, 256, 1)
	adam := mlp.NewAdam(1e-3)
	x, y := tensor.NewRandom(rng, 16, 10, 1), tensor.NewRandom(rng, 16, 1, 1)
	const steps = 2000
	for i := 0; i < 50; i++ {
		net.TrainStep(adam, x, y)
	}
	stepUS := timeIt(func() {
		for i := 0; i < steps; i++ {
			net.TrainStep(adam, x, y)
		}
	}) * 1e3 / steps
	a, b, dst := tensor.NewRandom(rng, 16, 10, 1), tensor.NewRandom(rng, 10, 256, 1), tensor.New(16, 256)
	const calls = 20000
	gemmUS := timeIt(func() {
		for i := 0; i < calls; i++ {
			tensor.MatMulInto(dst, a, b)
		}
	}) * 1e3 / calls
	res.Report = append(res.Report,
		layerMetric{"mlp.train_step_us", stepUS, "us", "wall_s"},
		layerMetric{"tensor.matmul_b16_us", gemmUS, "us", "wall_s"},
	)
	res.Share = []shareRow{
		{"predictor (profile generation)", "one Generate × simmemo.profile_misses", genMS * profiles},
		{"predictor (model fits)", "the program's predictor.train_ns timer, summed", trainMS},
	}
}
