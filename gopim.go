// Package gopim is the public API of the GoPIM reproduction: a
// simulator for GCN training on ReRAM processing-in-memory
// accelerators with ML-based crossbar replica allocation and
// interleaved selective vertex updating, after "GoPIM: GCN-Oriented
// Pipeline Optimization for PIM Accelerators" (HPCA 2025).
//
// Three entry points cover most uses:
//
//   - Simulate runs one accelerator model (Serial, SlimGNN-like,
//     ReGraphX, ReFlip, GoPIM-Vanilla, GoPIM, …) on one workload and
//     reports makespan, energy, replica allocation and idle statistics.
//   - Compare runs the full baseline set on one dataset.
//   - RunExperiment regenerates one of the paper's tables or figures
//     by id ("fig13", "tab5", …); Experiments lists the ids.
//
// Lower-level building blocks (the crossbar model, the pipeline
// scheduler, the time predictor, the GCN training engine) live in the
// internal packages and are documented there.
package gopim

import (
	"fmt"
	"io"

	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/graphgen"
	"gopim/internal/parallel"
	"gopim/internal/reram"
)

// Model is an accelerator model selector.
type Model = accel.Kind

// Accelerator models, in the paper's Fig. 13 order plus the Fig. 14
// ablation variants.
const (
	Serial       = accel.Serial
	SlimGNNLike  = accel.SlimGNNLike
	ReGraphX     = accel.ReGraphX
	ReFlip       = accel.ReFlip
	GoPIMVanilla = accel.GoPIMVanilla
	GoPIM        = accel.GoPIM
	PlusPP       = accel.PlusPP
	PlusISU      = accel.PlusISU
	Pipelayer    = accel.Pipelayer
)

// Workload configures one simulation; the zero value of every optional
// field selects the paper's defaults (Table II chip, micro-batch 64).
type Workload = accel.Workload

// Report is a simulation outcome.
type Report = accel.Report

// Dataset describes one catalog workload (paper Tables III and IV).
type Dataset = graphgen.Dataset

// Chip is the hardware configuration (paper Table II).
type Chip = reram.Chip

// DefaultChip returns the paper's Table II configuration.
func DefaultChip() Chip { return reram.DefaultChip() }

// Datasets returns the seven paper datasets.
func Datasets() []Dataset { return graphgen.Catalog() }

// DatasetByName looks up a catalog dataset ("ddi", "collab", "ppa",
// "proteins", "arxiv", "products", "Cora").
func DatasetByName(name string) (Dataset, error) { return graphgen.ByName(name) }

// Simulate runs one accelerator model on a workload.
func Simulate(m Model, w Workload) Report { return accel.Run(m, w) }

// Speedup returns base's makespan divided by other's.
func Speedup(base, other Report) float64 { return accel.Speedup(base, other) }

// EnergySaving returns base's energy divided by other's.
func EnergySaving(base, other Report) float64 { return accel.EnergySaving(base, other) }

// Comparison is the result of running every baseline on one dataset.
type Comparison struct {
	Dataset string
	Reports []Report
}

// Compare runs the paper's six baseline models on one catalog dataset.
func Compare(datasetName string, seed int64) (*Comparison, error) {
	d, err := graphgen.ByName(datasetName)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Dataset: d.Name}
	for _, k := range accel.AllBaselines() {
		c.Reports = append(c.Reports, accel.Run(k, Workload{Dataset: d, Seed: seed}))
	}
	return c, nil
}

// Render writes the comparison as a text table normalised to the first
// (Serial) report.
func (c *Comparison) Render(w io.Writer) error {
	if len(c.Reports) == 0 {
		return fmt.Errorf("gopim: empty comparison")
	}
	serial := c.Reports[0]
	if _, err := fmt.Fprintf(w, "%s (vs %s):\n", c.Dataset, serial.Kind); err != nil {
		return err
	}
	for _, r := range c.Reports {
		_, err := fmt.Fprintf(w, "  %-14s speedup %8.1fx   energy saving %6.2fx   crossbars %d\n",
			r.Kind, Speedup(serial, r), EnergySaving(serial, r), r.CrossbarsUsed)
		if err != nil {
			return err
		}
	}
	return nil
}

// ExperimentOptions tunes experiment regeneration.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated table or figure.
type ExperimentResult = experiments.Result

// Experiments lists the regenerable paper artifacts.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure by id.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opt)
}

// RunExperiments regenerates several artifacts concurrently on the
// worker pool and returns the results in the order the ids were given,
// so rendered output is identical at any worker count. Unknown ids
// fail before anything runs.
func RunExperiments(ids []string, opt ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(ids, opt)
}

// ExperimentHooks carries per-experiment lifecycle callbacks for
// RunExperimentsWithHooks (progress reporting, manifest timings).
type ExperimentHooks = experiments.RunHooks

// RunExperimentsWithHooks is RunExperiments with lifecycle callbacks
// fired as each experiment starts and finishes. Hooks may be invoked
// concurrently from worker goroutines.
func RunExperimentsWithHooks(ids []string, opt ExperimentOptions, hooks ExperimentHooks) ([]*ExperimentResult, error) {
	return experiments.RunAllWithHooks(ids, opt, hooks)
}

// SetWorkers overrides the worker-pool size every parallel kernel and
// experiment fan-out runs at (the CLI's -workers flag). n < 1 restores
// the default, GOMAXPROCS; the library never reads GOPIM_WORKERS, which
// only the CLI resolves. Output is deterministic for a fixed seed
// regardless of this setting.
func SetWorkers(n int) { parallel.SetWorkers(n) }
