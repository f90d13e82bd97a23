package main

// churn_stream: accel.RunChurn on arxiv — 2% edge churn per epoch,
// threshold refresh policy, and wear heavy enough that crossbar
// retirement lands mid-run.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"gopim/internal/accel"
	"gopim/internal/alloc"
	"gopim/internal/churn"
	"gopim/internal/endurance"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
	"gopim/internal/reram"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
)

const (
	churnEpochs = 8
	churnRate   = 0.02
	// churnWearMargin puts the hottest rows at 1.2× the write limit by
	// the last epoch (accel.ChurnDaysForRetirement), so retirement
	// starts partway through the run.
	churnWearMargin = 1.2
	// churnRetireThreshold and churnStalePeriod mirror accel's
	// unexported constants for wear-only runs, for the probes.
	churnRetireThreshold = 0.02
	churnStalePeriod     = 20
)

func init() {
	register(&workload{
		name: "churn_stream", ops: "churn epochs", op: "one RunChurn call's wall time",
		run: runChurnStream, shapes: churnShapes, suiteMoves: "wall_s, op_p50_ms",
	})
}

func churnShapes(seed int64) []shape {
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		panic(err)
	}
	return []shape{{d: d, seed: seed}}
}

func churnConfig(seed int64) churn.Config {
	return churn.Config{
		Rate:         churnRate,
		Seed:         seed,
		Policy:       churn.Threshold,
		DaysPerEpoch: accel.ChurnDaysForRetirement(churnEpochs, churnWearMargin),
	}
}

func runChurnStream(c *child) (iterResult, error) {
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		return iterResult{}, err
	}
	cc := churnConfig(c.seed)
	w := accel.Workload{Dataset: d, Seed: c.seed, Deg: d.SynthDegreeModel(c.seed)}
	if !c.ready() {
		return iterResult{}, nil
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	out, err := accel.RunChurn(w, cc, churnEpochs)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return iterResult{}, err
	}
	res := iterResult{WallS: wall, CPUS: c.cpuSince(), Attempted: churnEpochs, OpMS: []float64{wall * 1e3}}
	var makespan float64
	for _, ep := range out.Epochs {
		makespan += ep.MakespanNS
	}
	res.Metrics = map[string]float64{
		"sim_stripes_moved": float64(out.StripesMoved),
		"sim_makespan_ms":   makespan / 1e6,
	}
	if out.Retirements == 0 {
		res.Problems = append(res.Problems, "no crossbar retired: the wear setting no longer reaches retirement")
	}
	var snap bytes.Buffer
	fmt.Fprintf(&snap, "%+v\n", out)
	if err := obs.Default().WriteText(&snap, obs.Sim); err != nil {
		return res, err
	}
	sum := sha256.Sum256(snap.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	if c.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		changed := simCounter("churn.edges_added") + simCounter("churn.edges_removed")
		moved := simCounter("churn.stripes_moved")
		sim := "sim_stripes_moved, sim_makespan_ms (report only)"
		res.Report = []layerMetric{
			{"churn.stripes_moved", moved, "count", sim},
			{"churn.remap_full_fallbacks", simCounter("churn.remap_full_fallbacks"), "count", sim},
			{"churn.retirements_triggered", simCounter("churn.retirements_triggered"), "count", sim},
			{"churn.edges_changed", changed, "count", sim},
			{"churn.stripes_per_edge_changed", moved / changed, "ratio", sim},
		}
		probes, share, note := churnProbes(w, cc, out)
		res.Report = append(res.Report, probes...)
		res.Layers = runtimeLayers(ms0, ms1)
		res.Share = share
		res.Notes = append(res.Notes, note)
	}
	return res, nil
}

// churnProbes replays RunChurn's epoch loop through the layers' public
// functions on the same stream, timing each layer, and also times the
// full re-map the incremental path replaces. Per-epoch stripes moved and
// makespans are compared with the program's result.
func churnProbes(w accel.Workload, cc churn.Config, want accel.ChurnResult) ([]layerMetric, []shareRow, string) {
	defer simmemo.SetEnabled(simmemo.Enabled())
	simmemo.SetEnabled(false)
	names := []string{"churn.mutate_total_ms", "mapping.apply_delta_total_ms", "mapping.full_remap_total_ms",
		"mapping.update_plan_total_ms", "stage.build_total_ms", "alloc.greedy_total_ms", "pipeline.simulate_total_ms"}
	tot := map[string]float64{}
	stream := churn.MustNewStream(cc)
	cc = stream.Config()
	chip := reram.DefaultChip()
	const mb, mbPerBatch = 64, 8
	degs := append([]float64(nil), w.Deg.DegreesByIndex...)
	base := fault.Default().Config()
	if base.RetireThreshold == 0 {
		base.RetireThreshold = churnRetireThreshold
	}
	theta := w.Dataset.AdaptiveTheta()
	rows, cells := chip.CrossbarRows, chip.CellsPerCrossbar()
	layout := mapping.InterleavedLayout(degs, rows)
	plan := mapping.NewUpdatePlan(degs, theta, churnStalePeriod)
	drift := 0.0
	agree := 0
	for e := 0; e < len(want.Epochs); e++ {
		var delta churn.Delta
		tot[names[0]] += timeIt(func() { degs, delta = stream.Mutate(degs, e) })
		cfg := base
		cfg.WearWritesPerCell = base.WearWritesPerCell +
			endurance.TotalCellWrites(accel.ChurnProfile, 1, float64(e+1)*cc.DaysPerEpoch)
		fm := fault.MustNew(cfg)
		var dead []bool
		retired := 0
		if fm.Enabled() {
			dead = fm.DeadGroups((len(degs)+rows-1)/rows, cells)
			retired = fm.Retired(chip.TotalCrossbars(), cells)
		}
		var ds mapping.DeltaStats
		tot[names[1]] += timeIt(func() { layout, ds = layout.ApplyDelta(degs, delta.Changed, dead) })
		tot[names[2]] += timeIt(func() { mapping.InterleavedLayoutHealthy(degs, rows, dead) })
		drift += float64(len(delta.Changed)) / float64(len(degs))
		if delta.VerticesAdded > 0 || cc.ShouldRefresh(drift) {
			tot[names[3]] += timeIt(func() { plan = mapping.NewUpdatePlan(degs, theta, churnStalePeriod) })
			drift = 0
		}
		epochChip := chip
		if fm.Enabled() {
			epochChip.WriteRetryFactor = fm.RetryFactor(chip.CrossbarCols)
		}
		numMB := max((len(degs)+mb-1)/mb, 1)
		var stages []stage.Stage
		tot[names[4]] += timeIt(func() {
			stages = stage.Build(stage.Config{Chip: epochChip, Dataset: w.Dataset,
				Deg: graphgen.NewDegreeModel(degs), MicroBatch: mb, Layout: layout, Plan: plan})
		})
		req := alloc.FromStages(stages, max(epochChip.TotalCrossbars()-stage.TotalCrossbars(stages), 0), numMB)
		req.MaxReplicas = make([]int, len(stages))
		for i := range req.MaxReplicas {
			req.MaxReplicas[i] = numMB * accel.IntraSplit
		}
		req.RetiredCrossbars = retired
		var ares alloc.Result
		tot[names[5]] += timeIt(func() { ares = alloc.Greedy(req) })
		var sched pipeline.Result
		tot[names[6]] += timeIt(func() {
			sched = pipeline.SimulateUnrecorded(pipeline.Input{TimesNS: req.TimesNS, Replicas: ares.Replicas,
				MicroBatches: numMB, MicroBatchesPerBatch: mbPerBatch, Mode: pipeline.IntraInterBatch})
		})
		if ds.StripesMoved == want.Epochs[e].StripesMoved && sched.MakespanNS == want.Epochs[e].MakespanNS {
			agree++
		}
	}
	note := fmt.Sprintf("churn probes: %d of %d epochs agree with RunChurn on stripes moved and makespan",
		agree, len(want.Epochs))
	var layers []layerMetric
	var share []shareRow
	for _, n := range names {
		layers = append(layers, layerMetric{n, tot[n], "ms", "wall_s"})
		if n != "mapping.full_remap_total_ms" { // not on RunChurn's path
			share = append(share, shareRow{strings.TrimSuffix(n, "_total_ms"), "probe total over the run's epochs", tot[n]})
		}
	}
	return layers, share, note
}
