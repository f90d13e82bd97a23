package main

// The layer suite. Every traced iteration, whatever its workload, probes
// the same graph layers on the workload's own graphs, so every workload
// reports the same per-layer metrics and one layer's per-call cost can
// be set side by side across workload shapes: the best kernel depends
// on the shape of the workload (PyGim, PAPERS.md), and a change that
// helps one shape and costs another shows here.

import (
	"gopim/internal/accel"
	"gopim/internal/alloc"
	"gopim/internal/churn"
	"gopim/internal/explain"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/pipeline"
	"gopim/internal/reram"
	"gopim/internal/serve"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
	"gopim/internal/trace"
)

// shape is one graph a workload's layer suite probes.
type shape struct {
	d     graphgen.Dataset
	seed  int64   // degree-model and synthesis seed
	theta float64 // 0 takes the dataset's adaptive θ
}

// instanceVertices is the size of the synthesized instance the tensor
// and spmm probes run on: the -fast training scale.
const instanceVertices = 300

// suiteLayers are the per-layer metrics of every traced run, in the
// order the suite probes them, all in milliseconds. Each is the mean
// over the workload's shapes of one call's wall time; the tensor and
// spmm metrics are one training epoch's calls on a synthesized
// instance (epochShapes).
var suiteLayers = []string{
	"graphgen.degree_model_ms", "graphgen.synthesize_ms",
	"tensor.matmul_ms", "tensor.matmul_tn_ms", "tensor.matmul_nt_ms", "spmm.mul_ms",
	"mapping.interleave_ms", "mapping.update_plan_ms", "stage.build_ms", "alloc.greedy_ms",
	"pipeline.simulate_ms", "explain.analyze_ms", "churn.mutate_ms", "mapping.apply_delta_ms",
	"accel.run_ms",
}

// runSuite probes every suite layer on each shape, with the memo layer
// off so every call computes, and returns the per-shape means.
func runSuite(shapes []shape) map[string]float64 {
	defer simmemo.SetEnabled(simmemo.Enabled())
	simmemo.SetEnabled(false)
	tot := map[string]float64{}
	for _, s := range shapes {
		probeShape(s, tot)
	}
	for k := range tot {
		tot[k] /= float64(len(shapes))
	}
	return tot
}

// probeShape adds one shape's per-call times to tot. The simulator
// calls follow the daemon's planning order (mapping, stage, alloc,
// pipeline, explain), then one churn epoch with its incremental re-map,
// then a whole accelerator run.
func probeShape(s shape, tot map[string]float64) {
	d := s.d
	theta := s.theta
	if theta == 0 {
		theta = d.AdaptiveTheta()
	}
	var deg *graphgen.DegreeModel
	tot["graphgen.degree_model_ms"] += timeIt(func() { deg = d.SynthDegreeModel(s.seed) })
	var inst *graphgen.Instance
	tot["graphgen.synthesize_ms"] += timeIt(func() { inst = d.Synthesize(s.seed, instanceVertices) })
	e := newEpochShapes(inst, s.seed)
	tot["tensor.matmul_ms"] += medianTime(3, e.matmul)
	tot["tensor.matmul_tn_ms"] += medianTime(3, e.matmulTN)
	tot["tensor.matmul_nt_ms"] += medianTime(3, e.matmulNT)
	tot["spmm.mul_ms"] += medianTime(3, e.spmm)

	chip := reram.DefaultChip()
	const mb = 64
	degs := deg.DegreesByIndex
	cfg := stage.Config{Chip: chip, Dataset: d, Deg: deg, MicroBatch: mb}
	tot["mapping.interleave_ms"] += timeIt(func() { cfg.Layout = mapping.InterleavedLayout(degs, chip.CrossbarRows) })
	tot["mapping.update_plan_ms"] += timeIt(func() { cfg.Plan = mapping.NewUpdatePlan(degs, theta, churnStalePeriod) })
	var stages []stage.Stage
	tot["stage.build_ms"] += timeIt(func() { stages = stage.Build(cfg) })
	numMB := max((deg.N+mb-1)/mb, 1)
	req := alloc.FromStages(stages, max(chip.TotalCrossbars()-stage.TotalCrossbars(stages), 0), numMB)
	req.MaxReplicas = make([]int, len(stages))
	for i := range req.MaxReplicas {
		req.MaxReplicas[i] = numMB * accel.IntraSplit
	}
	var ares alloc.Result
	tot["alloc.greedy_ms"] += timeIt(func() { ares = alloc.Greedy(req) })
	tot["pipeline.simulate_ms"] += timeIt(func() {
		pipeline.SimulateUnrecorded(pipeline.Input{TimesNS: req.TimesNS, Replicas: ares.Replicas,
			MicroBatches: numMB, Mode: pipeline.IntraInterBatch})
	})
	stageNames := make([]string, len(stages))
	for i, st := range stages {
		stageNames[i] = st.Name
	}
	tot["explain.analyze_ms"] += timeIt(func() {
		explain.Analyze(trace.Input{TimesNS: req.TimesNS, Replicas: ares.Replicas,
			MicroBatches: min(numMB, serve.ExplainWindow)}, stageNames, explain.Options{Sensitivity: true})
	})

	// Mutate changes the slice it is given; the degree model stays intact.
	mutated := append([]float64(nil), degs...)
	var delta churn.Delta
	stream := churn.MustNewStream(churnConfig(s.seed))
	tot["churn.mutate_ms"] += timeIt(func() { mutated, delta = stream.Mutate(mutated, 0) })
	tot["mapping.apply_delta_ms"] += timeIt(func() { cfg.Layout.ApplyDelta(mutated, delta.Changed, nil) })

	tot["accel.run_ms"] += timeIt(func() {
		accel.Run(accel.GoPIM, accel.Workload{Dataset: d, Deg: deg, Seed: s.seed, MicroBatch: mb, ThetaOverride: s.theta})
	})
}
