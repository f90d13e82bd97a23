package main

// plan_serve: an in-process planning daemon on loopback, driven as a
// closed loop by one keep-alive client per CPU through a seeded request
// sequence with Zipf-like key reuse.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gopim/internal/accel"
	"gopim/internal/alloc"
	"gopim/internal/experiments"
	"gopim/internal/explain"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
	"gopim/internal/reram"
	"gopim/internal/serve"
	"gopim/internal/stage"
	"gopim/internal/trace"
)

// planRequests is the length of one iteration's request sequence.
// With planRounds × 40 distinct keys, about 7% of requests miss: the
// median lands among hits and the p99 inside the cluster of
// arxiv-scale misses, where neighbouring latencies are close together,
// so it does not jump between cost classes from run to run.
const planRequests = 1800

// planRounds is how many copies of the key mix one iteration serves.
// A longer iteration dilutes the end of the closed loop, when one
// client still waits on a slow miss and the other has run out of work.
const planRounds = 3

// planKeysPerRound is the size of one round of the key mix: four
// catalog datasets in four variants, eight custom graphs in three.
const planKeysPerRound = 4*4 + 8*3

// predictorSeed is the seed of the one shared predictor the daemon
// warms at set-up; use_predictor keys use it, so no request pays a
// predictor training.
const predictorSeed = 1

func init() {
	register(&workload{
		name: "plan_serve", ops: "plan requests", op: "one plan request's client-side latency",
		run: runPlanServe, shapes: planShapes, suiteMoves: "op_p99_ms, wall_s",
	})
}

// planShapes are the graphs of the first round's plain keys: every
// catalog dataset of the mix and the custom graphs at each vertex count.
func planShapes(seed int64) []shape {
	var out []shape
	for _, k := range planKeys(rand.New(rand.NewSource(seed)))[:planKeysPerRound] {
		if !k.Simulate && !k.Explain && !k.UsePredictor {
			out = append(out, shape{d: planDataset(k), seed: k.Seed, theta: k.Theta})
		}
	}
	return out
}

// planKeys builds the seeded key population: planRounds rounds of the
// same cost mix, so that miss costs stay comparable across seeds. Each
// round holds every catalog dataset up to arxiv scale in each response
// variant, plus custom graphs on a fixed geometric grid of vertex
// counts from 10k to 100k (a miss costs about linearly in the vertex
// count). The seed picks everything else: degree-model seeds, θ, and
// the custom graphs' degree, widths and depth; the round picks disjoint
// seeds or θ so that no two keys coincide. products and ppa are left
// out — one miss of theirs takes seconds and would dominate a run — and
// so is collab, larger than arxiv.
func planKeys(rng *rand.Rand) []serve.PlanRequest {
	var keys []serve.PlanRequest
	variant := func(r serve.PlanRequest, v int) serve.PlanRequest {
		r.Simulate, r.Explain = v == 1, v == 2
		return r
	}
	thetas := []float64{0, 0.5, 0.8}
	dims := []int{64, 128, 256, 512}
	for round := 0; round < planRounds; round++ {
		seed := func() int64 { return int64(1 + 3*round + rng.Intn(3)) }
		for _, ds := range []string{"Cora", "ddi", "proteins", "arxiv"} {
			for v := 0; v < 3; v++ {
				keys = append(keys, variant(serve.PlanRequest{
					Dataset: ds, Seed: seed(), Theta: thetas[rng.Intn(len(thetas))]}, v))
			}
			keys = append(keys, serve.PlanRequest{
				Dataset: ds, Seed: predictorSeed, Theta: float64(round) / planRounds, UsePredictor: true})
		}
		for i := 0; i < 8; i++ {
			vertices := int(10e3 * math.Pow(10, float64(i)/7))
			for v := 0; v < 3; v++ {
				keys = append(keys, variant(serve.PlanRequest{Seed: seed(), Graph: &serve.GraphStats{
					Vertices:   vertices,
					AvgDegree:  float64(4 + rng.Intn(29)),
					FeatureDim: dims[rng.Intn(len(dims))],
					Layers:     2 + rng.Intn(2),
				}}, v))
			}
		}
	}
	return keys
}

// planSequence returns the request order as key indices: every key once
// (so every key misses exactly once on a cold cache) plus Zipf-drawn
// repeats, shuffled together. The popularity ranking is the same for
// every seed: which keys are hot decides how often clients wait on a
// coalesced miss, so a seeded ranking would change the cost mix.
func planSequence(rng *rand.Rand, keys int) []int {
	rank := rand.New(rand.NewSource(0)).Perm(keys)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	seq := make([]int, 0, planRequests)
	for i := 0; i < keys; i++ {
		seq = append(seq, i)
	}
	for len(seq) < planRequests {
		seq = append(seq, rank[zipf.Uint64()])
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func runPlanServe(c *child) (iterResult, error) {
	rng := rand.New(rand.NewSource(c.seed))
	keys := planKeys(rng)
	seq := planSequence(rng, len(keys))
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(k)
		if err != nil {
			return iterResult{}, err
		}
		bodies[i] = b
	}

	var tracer *obs.Tracer
	cfg := serve.Config{Addr: "127.0.0.1:0"}
	if c.traced {
		tracer = obs.NewTracer()
		obs.SetTracer(tracer)
		cfg.TraceSample = 1
	}
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return iterResult{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the iteration's result is already decided
	}()
	clients := runtime.NumCPU()
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	base := "http://" + srv.Addr().String()
	if err := waitReady(client, base); err != nil {
		return iterResult{}, err
	}
	// The warm-up a long-lived daemon pays once: the shared predictor
	// that use_predictor keys plan against.
	experiments.SharedPredictor(experiments.Options{Seed: predictorSeed, Fast: true})
	if !c.ready() {
		return iterResult{}, nil
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lat := make([]float64, len(seq))
	disp := make([]byte, len(seq))
	got := make([][]byte, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t := time.Now()
				body, d := postPlan(client, base, bodies[seq[i]])
				lat[i] = float64(time.Since(t)) / 1e6
				disp[i], got[i] = d, body
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()

	res := iterResult{WallS: wall, CPUS: c.cpuSince(), Attempted: len(seq), OpMS: lat, Disp: string(disp)}
	byKey := make([][]byte, len(keys))
	misses := 0
	for i, d := range disp {
		switch d {
		case 'f':
			res.Failed++
			continue
		case 'm':
			misses++
		}
		k := seq[i]
		if byKey[k] == nil {
			byKey[k] = got[i]
		} else if !bytes.Equal(byKey[k], got[i]) {
			res.Problems = append(res.Problems, fmt.Sprintf("key %s: response bodies differ between requests", bodies[k]))
		}
	}
	if misses != len(keys) {
		res.Problems = append(res.Problems, fmt.Sprintf("%d plans computed for %d distinct keys: the plan cache was not cold or evicted", misses, len(keys)))
	}
	res.Digest = digestPlans(bodies, byKey)
	if c.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		res.Report = planLayers(&res, tracer)
		probes, share, note := planProbes(keys, byKey)
		res.Report = append(res.Report, probes...)
		res.Notes = append(res.Notes, note)
		res.Layers = runtimeLayers(ms0, ms1)
		res.Share = share
	}
	return res, nil
}

func waitReady(client *http.Client, base string) error {
	for i := 0; i < 200; i++ {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", base)
}

// postPlan sends one planning request and returns the body with its
// cache disposition; any non-200 answer (429 and 503 included) fails.
func postPlan(client *http.Client, base string, body []byte) ([]byte, byte) {
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 'f'
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, 'f'
	}
	switch resp.Header.Get("X-Gopim-Cache") {
	case "hit":
		return b, 'h'
	case "miss":
		return b, 'm'
	case "coalesced":
		return b, 'c'
	}
	return nil, 'f'
}

// digestPlans hashes the key → response body map in key order.
func digestPlans(keys, bodies [][]byte) string {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0 })
	h := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(h, "%s\n%s\n", keys[i], bodies[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// latencies splits the pooled per-request latencies by disposition.
func latencies(its []iteration, want string) []float64 {
	var out []float64
	for _, it := range its {
		for i, d := range it.res.Disp {
			if strings.IndexByte(want, byte(d)) >= 0 {
				out = append(out, it.res.OpMS[i])
			}
		}
	}
	return out
}

// planLayers derives the daemon-side layer metrics of a traced
// iteration from the client's cache dispositions and the daemon's own
// per-stage spans.
func planLayers(res *iterResult, tracer *obs.Tracer) []layerMetric {
	one := []iteration{{res: *res}}
	n := float64(len(res.Disp))
	hits := float64(strings.Count(res.Disp, "h"))
	coal := float64(strings.Count(res.Disp, "c"))
	miss := latencies(one, "m")
	spans := map[string][]float64{}
	for _, e := range tracer.Events() {
		if strings.HasPrefix(e.Name, "serve.") && e.Ph == "X" {
			spans[e.Name] = append(spans[e.Name], e.Dur/1e3) // µs → ms
		}
	}
	mean := func(name string) float64 {
		xs := spans[name]
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	cachePath := "op_p50_ms, wall_s"
	return []layerMetric{
		{"serve.hit_ratio", hits / n, "ratio", cachePath},
		{"serve.coalesced_ratio", coal / n, "ratio", cachePath},
		{"serve.hit_p50_ms", median(latencies(one, "h")), "ms", cachePath},
		{"serve.cache_lookup_ms", mean("serve.cache_lookup"), "ms", cachePath},
		{"serve.marshal_ms", mean("serve.marshal"), "ms", cachePath},
		{"serve.miss_p50_ms", quantile(miss, 0.50), "ms", "op_p99_ms"},
		{"serve.miss_p99_ms", quantile(miss, 0.99), "ms", "op_p99_ms"},
		{"serve.admission_ms", mean("serve.admission"), "ms", "op_p99_ms"},
		{"serve.workspace_acquire_ms", mean("serve.workspace_acquire"), "ms", "op_p99_ms"},
		{"serve.plan_ms", mean("serve.plan"), "ms", "op_p99_ms"},
		{"serve.simulate_ms", mean("serve.simulate"), "ms", "op_p99_ms"},
		{"serve.rejected", simCounter("serve.rejected_overload") + simCounter("serve.deadline_shed"), "count", "op_p99_ms"},
	}
}

// planDataset resolves a request's workload the way the daemon does.
func planDataset(r serve.PlanRequest) graphgen.Dataset {
	if r.Dataset != "" {
		d, err := graphgen.ByName(r.Dataset)
		if err != nil {
			panic(err)
		}
		return d
	}
	g := *r.Graph
	if g.Name == "" {
		g.Name = "custom"
	}
	if g.HiddenDim == 0 {
		g.HiddenDim = 256
	}
	if g.OutputDim == 0 {
		g.OutputDim = 256
	}
	if g.Layers == 0 {
		g.Layers = 2
	}
	return graphgen.Dataset{
		Name: g.Name, PaperVertices: g.Vertices, PaperEdges: int(float64(g.Vertices) * g.AvgDegree / 2),
		PaperAvgDeg: g.AvgDegree, FeatureDim: g.FeatureDim, Layers: g.Layers,
		InputCh: g.FeatureDim, HiddenCh: g.HiddenDim, OutputCh: g.OutputDim,
	}
}

// planProbes replays each distinct key's planning computation through
// the layers' public functions, in the daemon's order, timing each
// layer. A probe whose scheduled makespan differs from the daemon's
// response is reported, so a drifted probe cannot pass silently.
func planProbes(keys []serve.PlanRequest, responses [][]byte) ([]layerMetric, []shareRow, string) {
	names := []string{"graphgen.degree_model_total_ms", "mapping.interleave_total_ms", "mapping.update_plan_total_ms",
		"stage.build_total_ms", "alloc.greedy_total_ms", "pipeline.simulate_total_ms", "predictor.predict_times_total_ms",
		"accel.run_total_ms", "explain.analyze_total_ms"}
	tot := map[string]float64{}
	chip := reram.DefaultChip()
	pred := experiments.SharedPredictor(experiments.Options{Seed: predictorSeed, Fast: true})
	mismatched := 0
	for ki, r := range keys {
		d := planDataset(r)
		mb := 64
		theta := r.Theta
		if theta == 0 {
			theta = d.AdaptiveTheta()
		}
		var deg *graphgen.DegreeModel
		tot[names[0]] += timeIt(func() { deg = d.SynthDegreeModel(r.Seed) })
		cfg := stage.Config{Chip: chip, Dataset: d, Deg: deg, MicroBatch: mb}
		tot[names[1]] += timeIt(func() { cfg.Layout = mapping.InterleavedLayout(deg.DegreesByIndex, chip.CrossbarRows) })
		tot[names[2]] += timeIt(func() { cfg.Plan = mapping.NewUpdatePlan(deg.DegreesByIndex, theta, 20) })
		var stages []stage.Stage
		tot[names[3]] += timeIt(func() { stages = stage.Build(cfg) })
		numMB := max((deg.N+mb-1)/mb, 1)
		budget := max(chip.TotalCrossbars()-stage.TotalCrossbars(stages), 0)
		req := alloc.FromStages(stages, budget, numMB)
		req.MaxReplicas = make([]int, len(stages))
		for i := range req.MaxReplicas {
			req.MaxReplicas[i] = numMB * accel.IntraSplit
		}
		allocTimes := req.TimesNS
		if r.UsePredictor {
			tot[names[6]] += timeIt(func() {
				allocTimes = pred.PredictTimes(stage.Config{Chip: chip, Dataset: d, Deg: deg, MicroBatch: mb})
			})
		}
		mlReq := req
		mlReq.TimesNS = allocTimes
		var ares alloc.Result
		tot[names[4]] += timeIt(func() { ares = alloc.Greedy(mlReq) })
		var sched pipeline.Result
		tot[names[5]] += timeIt(func() {
			sched = pipeline.Simulate(pipeline.Input{TimesNS: req.TimesNS, Replicas: ares.Replicas,
				MicroBatches: numMB, Mode: pipeline.IntraInterBatch})
		})
		if r.Explain {
			stageNames := make([]string, len(stages))
			for i, s := range stages {
				stageNames[i] = s.Name
			}
			tot[names[8]] += timeIt(func() {
				explain.Analyze(trace.Input{TimesNS: req.TimesNS, Replicas: ares.Replicas,
					MicroBatches: min(numMB, serve.ExplainWindow)}, stageNames, explain.Options{Sensitivity: true})
			})
		}
		if r.Simulate {
			w := accel.Workload{Dataset: d, Deg: deg, Seed: r.Seed, MicroBatch: mb, ThetaOverride: r.Theta}
			if r.UsePredictor {
				w.PredictedTimes = allocTimes
			}
			tot[names[7]] += timeIt(func() { accel.Run(accel.GoPIM, w) })
		}
		var served serve.PlanResponse
		if json.Unmarshal(responses[ki], &served) != nil || served.ScheduledMakespanNS != sched.MakespanNS {
			mismatched++
		}
	}
	note := fmt.Sprintf("plan probes: %d distinct keys replayed, %d disagree with the daemon's scheduled makespan",
		len(keys), mismatched)
	var layers []layerMetric
	var share []shareRow
	for _, n := range names {
		layers = append(layers, layerMetric{n, tot[n], "ms", "op_p99_ms"})
		share = append(share, shareRow{strings.TrimSuffix(n, "_total_ms"), "probe total over the distinct keys (one miss each)", tot[n]})
	}
	return layers, share, note
}
