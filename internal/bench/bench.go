// Package bench is GoPIM's performance-regression harness. It runs a
// standard workload suite — a {dataset, model} simulation matrix plus a
// set of experiment harnesses, each at several worker counts — with
// warmup and repeat controls, and captures two kinds of signal per
// configuration:
//
//   - wall-clock timing statistics (min/median/max across repeats),
//     which describe this machine on this day and are compared
//     report-only; and
//   - the full Sim-clock metric snapshot from the obs registry, which
//     is a pure function of the suite and seed (byte-identical at any
//     worker count) and therefore diffs strictly across runs, machines
//     and commits.
//
// Run writes a versioned BENCH_<label>.json; Diff (diff.go) compares
// two such files (or raw -metrics JSON snapshots) metric-by-metric and
// classifies every value as improved, regressed, unchanged, added or
// removed; Attribution (attrib.go) pivots the per-{dataset, model}
// accelerator series into a "where did the time and energy go" table.
// The gopim CLI surfaces all three as `gopim bench` and `gopim diff`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/tensor"
)

// Schema is the BENCH file format version; bump it on any breaking
// change to File so diffs fail loudly instead of misreading old files.
// Version 2 added per-repeat heap-allocation stats (AllocObjs/AllocMB).
const Schema = 2

// Config tunes one bench-suite run. The zero value of every field
// selects the smoke-scale default, so Config{} is the CI suite.
type Config struct {
	// Label names the output file (BENCH_<label>.json).
	Label string
	// Suite selects the workload family: "" (or "default") is the
	// standard sim-matrix + experiments pair; KernelsSuite runs the SpMM
	// strategy micro-benchmarks instead.
	Suite string
	// Seed drives all synthetic graph generation.
	Seed int64
	// Fast shrinks the experiment workloads (experiments.Options.Fast).
	Fast bool
	// Warmup runs per configuration are executed but not recorded; the
	// default 1 warms caches (the shared predictor cache in
	// particular) so every measured repeat sees the same state.
	Warmup int
	// Repeats is the number of measured runs per configuration
	// (default 3). Wall stats aggregate over them; the Sim snapshot is
	// captured from the last repeat and checked for stability across
	// all of them.
	Repeats int
	// Workers lists the worker counts the suite runs at (default
	// {1, 2} — machine-independent, so config names match across
	// hosts).
	Workers []int
	// Experiments lists experiment harness ids (default: the fig4–fig7
	// smoke set the determinism tests pin).
	Experiments []string
	// Datasets and Models define the direct simulation matrix (default:
	// ddi and Cora × the six Fig. 13 baselines).
	Datasets []string
	Models   []accel.Kind
	// Args is recorded in the run manifest for provenance.
	Args []string
}

// SmokeExperiments is the default experiment set: the cheap motivation
// harnesses that exercise accel, pipeline and mapping end to end.
func SmokeExperiments() []string { return []string{"fig4", "fig5", "fig6", "fig7"} }

// SmokeDatasets is the default simulation-matrix dataset set.
func SmokeDatasets() []string { return []string{"ddi", "Cora"} }

func (c *Config) defaults() {
	if c.Label == "" {
		c.Label = "local"
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Repeats < 1 {
		c.Repeats = 3
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2}
	}
	if len(c.Experiments) == 0 {
		c.Experiments = SmokeExperiments()
	}
	if len(c.Datasets) == 0 {
		c.Datasets = SmokeDatasets()
	}
	if len(c.Models) == 0 {
		c.Models = accel.AllBaselines()
	}
}

// Suite records the workload definition inside the BENCH file, so a
// diff can tell when two files measured different things.
type Suite struct {
	Name        string   `json:"suite,omitempty"`
	Seed        int64    `json:"seed"`
	Fast        bool     `json:"fast"`
	Warmup      int      `json:"warmup"`
	Repeats     int      `json:"repeats"`
	Workers     []int    `json:"workers"`
	Experiments []string `json:"experiments"`
	Datasets    []string `json:"datasets"`
	Models      []string `json:"models"`
}

// MetricValue is one flattened metric field from a registry snapshot.
// Values keep the registry's deterministic string rendering; the diff
// engine parses them back to floats when both sides are numeric.
type MetricValue struct {
	Name  string `json:"name"`
	Clock string `json:"clock"`
	Kind  string `json:"kind"`
	Field string `json:"field"`
	Value string `json:"value"`
}

// Stats are wall-clock milliseconds aggregated across repeats.
type Stats struct {
	MinMS    float64 `json:"min_ms"`
	MedianMS float64 `json:"median_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// statsOf aggregates sorted samples (destructively sorts its input).
func statsOf(ms []float64) Stats {
	sort.Float64s(ms)
	return Stats{
		MinMS:    ms[0],
		MedianMS: ms[len(ms)/2],
		MaxMS:    ms[len(ms)-1],
	}
}

// ConfigResult is one configuration's outcome.
type ConfigResult struct {
	// Name identifies the configuration ("sim-matrix/w2"); diffs match
	// configurations by this name.
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// WallMS aggregates the measured repeats (report-only in diffs).
	WallMS Stats `json:"wall_ms"`
	// AllocObjs and AllocMB are the median heap-allocation count and
	// megabytes per measured repeat (runtime.MemStats deltas). Like
	// wall time they describe this process, not the model, so diffs
	// compare them report-only — but a jump flags an allocation
	// regression in the hot paths the suite exercises.
	AllocObjs float64 `json:"alloc_objs"`
	AllocMB   float64 `json:"alloc_mb"`
	// SimStable is false when the Sim snapshot drifted between repeats
	// of this very run — a determinism bug worth investigating.
	SimStable bool `json:"sim_stable"`
	// SimMetrics is the flattened Sim-clock snapshot of the last
	// repeat (strictly diffable).
	SimMetrics []MetricValue `json:"sim_metrics"`
}

// File is the versioned on-disk BENCH format.
type File struct {
	Schema   int            `json:"schema"`
	Label    string         `json:"label"`
	Suite    Suite          `json:"suite"`
	Manifest *obs.Manifest  `json:"manifest,omitempty"`
	Configs  []ConfigResult `json:"configs"`
}

// FileName returns the canonical file name for a label, sanitised to
// [A-Za-z0-9._-] so labels can't escape the output directory.
func FileName(label string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, label)
	if s == "" {
		s = "local"
	}
	return "BENCH_" + s + ".json"
}

// flattenSim renders the registry's Sim-clock snapshot as flat
// metric/field/value triples, preserving the registry's deterministic
// name and field ordering. Metrics with zero observations are dropped:
// registration is process-global and permanent, so without the filter
// a configuration's snapshot would include every series earlier
// configurations happened to register, and the same configuration
// would render differently depending on what ran before it.
func flattenSim(reg *obs.Registry) []MetricValue {
	var out []MetricValue
	for _, s := range reg.Snapshot(obs.Sim) {
		if len(s.Fields) > 0 && s.Fields[0].Key == "count" && s.Fields[0].Value == "0" {
			continue
		}
		for _, f := range s.Fields {
			out = append(out, MetricValue{
				Name: s.Name, Clock: s.Clock.String(), Kind: s.Kind,
				Field: f.Key, Value: f.Value,
			})
		}
	}
	return out
}

func sameMetrics(a, b []MetricValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run executes the suite and returns the BENCH file content.
//
// Run owns process-global state for its duration: it enables obs
// recording, resets the default registry between repeats (so each
// snapshot covers exactly one pass), and drives parallel.SetWorkers
// through the configured counts, restoring the default (0) and the
// previous obs enablement on return. Don't run it concurrently with
// other instrumented work.
func Run(cfg Config) (*File, error) {
	cfg.defaults()

	// Validate the whole matrix before the first (possibly long) run.
	for _, id := range cfg.Experiments {
		found := false
		for _, have := range experiments.IDs() {
			if id == have {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown experiment %q (have %s)",
				id, strings.Join(experiments.IDs(), ", "))
		}
	}
	datasets := make([]graphgen.Dataset, len(cfg.Datasets))
	for i, name := range cfg.Datasets {
		d, err := graphgen.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		datasets[i] = d
	}

	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	defer parallel.SetWorkers(0)

	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.String()
	}
	f := &File{
		Schema: Schema,
		Label:  cfg.Label,
		Suite: Suite{
			Name: cfg.Suite,
			Seed: cfg.Seed, Fast: cfg.Fast,
			Warmup: cfg.Warmup, Repeats: cfg.Repeats,
			Workers: cfg.Workers, Experiments: cfg.Experiments,
			Datasets: cfg.Datasets, Models: models,
		},
		Manifest: obs.NewManifest(cfg.Args),
	}
	f.Manifest.Seed = cfg.Seed
	f.Manifest.Fast = cfg.Fast
	f.Manifest.Format = "bench"
	f.Manifest.TensorKernel = tensor.Kernel()

	simMatrix := func() error {
		type pair struct {
			d graphgen.Dataset
			m accel.Kind
		}
		pairs := make([]pair, 0, len(datasets)*len(cfg.Models))
		for _, d := range datasets {
			for _, m := range cfg.Models {
				pairs = append(pairs, pair{d, m})
			}
		}
		parallel.Map(len(pairs), func(i int) struct{} {
			accel.Run(pairs[i].m, accel.Workload{Dataset: pairs[i].d, Seed: cfg.Seed})
			return struct{}{}
		})
		return nil
	}
	expSuite := func() error {
		_, err := experiments.RunAll(cfg.Experiments,
			experiments.Options{Seed: cfg.Seed, Fast: cfg.Fast})
		return err
	}

	var groups []benchGroup
	switch cfg.Suite {
	case "", "default":
		groups = []benchGroup{{"sim-matrix", simMatrix}, {"experiments", expSuite}}
	case KernelsSuite:
		groups = kernelGroups(datasets, cfg.Seed, cfg.Fast)
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want default or %s)", cfg.Suite, KernelsSuite)
	}

	for _, w := range cfg.Workers {
		for _, group := range groups {
			res, err := runConfig(fmt.Sprintf("%s/w%d", group.name, w),
				w, cfg.Warmup, cfg.Repeats, group.body)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/w%d: %w", group.name, w, err)
			}
			f.Manifest.Record(res.Name, time.Duration(res.WallMS.MedianMS*1e6), nil)
			f.Configs = append(f.Configs, res)
		}
	}
	f.Manifest.Finish()
	return f, nil
}

// benchGroup is one named workload body the suite loop measures per
// worker count.
type benchGroup struct {
	name string
	body func() error
}

// runConfig measures one configuration: warmup passes, then repeats
// with the registry reset before each so every Sim snapshot covers
// exactly one pass.
func runConfig(name string, workers, warmup, repeats int, body func() error) (ConfigResult, error) {
	parallel.SetWorkers(workers)
	for i := 0; i < warmup; i++ {
		if err := body(); err != nil {
			return ConfigResult{}, err
		}
	}
	wallMS := make([]float64, repeats)
	allocObjs := make([]float64, repeats)
	allocMB := make([]float64, repeats)
	var snap []MetricValue
	stable := true
	var msBefore, msAfter runtime.MemStats
	for r := 0; r < repeats; r++ {
		// Resetting the registry also clears the simmemo caches (its
		// OnReset hook), so each repeat's Sim snapshot — hit/miss
		// counters included — covers exactly one cold pass.
		obs.Default().Reset()
		runtime.ReadMemStats(&msBefore)
		t0 := time.Now()
		if err := body(); err != nil {
			return ConfigResult{}, err
		}
		wallMS[r] = float64(time.Since(t0)) / 1e6
		runtime.ReadMemStats(&msAfter)
		allocObjs[r] = float64(msAfter.Mallocs - msBefore.Mallocs)
		allocMB[r] = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
		cur := flattenSim(obs.Default())
		if snap != nil && !sameMetrics(snap, cur) {
			stable = false
		}
		snap = cur
	}
	if !stable {
		obs.Warnf("bench", "%s: Sim snapshot drifted between repeats (non-deterministic metric?)", name)
	}
	return ConfigResult{
		Name:       name,
		Workers:    workers,
		WallMS:     statsOf(wallMS),
		AllocObjs:  medianOf(allocObjs),
		AllocMB:    medianOf(allocMB),
		SimStable:  stable,
		SimMetrics: snap,
	}, nil
}

// medianOf returns the median (destructively sorts its input).
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// WriteFile writes the BENCH file as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a comparable file: either a BENCH_*.json written by
// WriteFile, or a raw -metrics JSON snapshot (the array the registry's
// WriteJSON emits), which loads as a single pseudo-configuration named
// "snapshot" so bench runs and ad-hoc metric dumps diff uniformly.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		return loadRawSnapshot(path, data)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %d, this build reads %d (regenerate with `gopim bench`)",
			path, f.Schema, Schema)
	}
	return &f, nil
}

// loadRawSnapshot converts a registry WriteJSON array into File form.
func loadRawSnapshot(path string, data []byte) (*File, error) {
	var raw []struct {
		Name   string            `json:"name"`
		Clock  string            `json:"clock"`
		Kind   string            `json:"kind"`
		Values map[string]string `json:"values"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	var metrics []MetricValue
	for _, m := range raw {
		fields := make([]string, 0, len(m.Values))
		for k := range m.Values {
			fields = append(fields, k)
		}
		sort.Strings(fields)
		for _, k := range fields {
			metrics = append(metrics, MetricValue{
				Name: m.Name, Clock: m.Clock, Kind: m.Kind,
				Field: k, Value: m.Values[k],
			})
		}
	}
	return &File{
		Schema: Schema,
		Label:  path,
		Configs: []ConfigResult{{
			Name: "snapshot", SimStable: true, SimMetrics: metrics,
		}},
	}, nil
}
