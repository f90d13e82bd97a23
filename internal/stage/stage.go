// Package stage converts a GCN workload (model architecture + graph
// statistics + micro-batch size + mapping policy) into the 4L pipeline
// stages of paper Fig. 10, each with a per-micro-batch latency for one
// replica, a crossbar footprint, and energy-relevant operation counts.
//
// Latency model (calibrated against the paper's reported ratios, see
// DESIGN.md §2):
//
//   - Combination (CO): the micro-batch's b feature vectors stream
//     through the mapped weight matrix; each needs weightBits/dacBits
//     read cycles. T = b · MVMNS. The per-batch weight rewrite after
//     gradient descent is amortised over the batch's micro-batches.
//   - Aggregation (AG): T = T_update + T_mvm.
//     T_mvm streams each target vertex's adjacency row in blocks of 64
//     vertices (binary input: one read cycle per block), skipping
//     neighbour-free blocks imperfectly (Chip.ZeroSkipMiss).
//     T_update rewrites the freshly combined features onto the mapped
//     feature matrix before aggregation (dataflow step ⑤ in paper
//     Fig. 8); writes serialise within a PE, PEs run in parallel, so
//     the slowest PE domain bounds the update. Selective updating
//     skips non-important rows; interleaved mapping keeps the domains
//     balanced.
//   - Loss calculation (LC): same dataflow as CO (paper §IV-B).
//   - Gradient compute (GC): element-wise MACs on the SRAM weight
//     manager; not crossbar-mapped, so it cannot be replicated.
package stage

import (
	"fmt"
	"math"

	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/reram"
)

// Kind identifies one of the four GCN training stage types.
type Kind int

const (
	Combination Kind = iota // CO: feature × weight MVM
	Aggregation             // AG: adjacency × feature MVM + vertex update
	LossCalc                // LC: backward error propagation
	GradCompute             // GC: weight gradients on the SRAM manager
)

func (k Kind) String() string {
	switch k {
	case Combination:
		return "CO"
	case Aggregation:
		return "AG"
	case LossCalc:
		return "LC"
	case GradCompute:
		return "GC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stage is one pipeline stage of a GCN training iteration.
type Stage struct {
	Kind  Kind
	Layer int // 1-based GCN layer
	// Name is e.g. "CO1", "AG2", "LC1".
	Name string

	// TimeNS is the per-micro-batch latency with a single replica.
	TimeNS float64
	// MVMNS and UpdateNS break TimeNS down (UpdateNS only for AG).
	MVMNS    float64
	UpdateNS float64

	// Crossbars is the footprint of one replica (0 for GC: the SRAM
	// weight manager is not crossbar-mapped).
	Crossbars int
	// Replicable reports whether adding crossbar replicas shortens the
	// stage.
	Replicable bool

	// Energy-relevant per-micro-batch operation counts.
	ReadOps   float64 // crossbar read activations
	WriteRows float64 // crossbar rows written (total, all PEs)
	SRAMMACs  float64 // weight-manager multiply-accumulates
}

// GCUnit models the SRAM weight computer's throughput in MACs per
// nanosecond (16-bit, paper Table II "Weight Computer"). The weight
// manager is a wide SRAM MAC array; gradient compute must stay far off
// the pipeline's critical path or the paper's 10²–10³× replica
// speedups would be impossible.
const GCUnit = 1024.0

// Config describes one workload for stage construction.
type Config struct {
	Chip reram.Chip
	// Dataset supplies the GCN architecture (layer dims) and graph
	// statistics.
	Dataset graphgen.Dataset
	// Deg is the graph's degree sequence in vertex-index order.
	Deg *graphgen.DegreeModel
	// MicroBatch is the number of target vertices per micro-batch.
	MicroBatch int

	// Layout/Plan select the vertex mapping and selective-updating
	// policy for aggregation stages. A nil Layout with a nil Plan means
	// full updates on a balanced (index) layout.
	Layout *mapping.Layout
	Plan   *mapping.UpdatePlan

	// PruneEdgeFraction removes this fraction of edges from the
	// aggregation workload (SlimGNN-like input subgraph pruning).
	PruneEdgeFraction float64
	// ReloadPenalty adds ReFlip's hybrid-execution reload traffic:
	// column-major execution of low-degree vertices repeatedly reloads
	// source vertices (paper §VII-B).
	ReloadPenalty bool
	// AGMVMSpeedup divides aggregation MVM time (≤ 1 treated as 1).
	// ReFlip's row/column hybrid execution reuses operands across
	// vertices, trading the reload write traffic above for much faster
	// aggregation compute.
	AGMVMSpeedup float64
	// NoC adds the inter-tile interconnect overhead of aggregation
	// (adder-tree reduction + pipeline-bus streaming, paper §IV-A) to
	// AG stage times. The default calibration subsumes average
	// interconnect cost, so this refinement is opt-in.
	NoC bool
}

// LayerDims returns the (in, out) channel widths of layer l (1-based)
// per paper Table IV: input → hidden → … → output.
func LayerDims(d graphgen.Dataset, l int) (in, out int) {
	if l < 1 || l > d.Layers {
		panic(fmt.Sprintf("stage: layer %d out of range 1..%d", l, d.Layers))
	}
	in = d.HiddenCh
	if l == 1 {
		in = d.InputCh
	}
	out = d.HiddenCh
	if l == d.Layers {
		out = d.OutputCh
	}
	return in, out
}

// Build constructs the 4L stages in pipeline order:
// CO1, AG1, …, COL, AGL, LCL, GCL, …, LC1, GC1 (paper Fig. 2).
func Build(cfg Config) []Stage {
	if err := cfg.Chip.Validate(); err != nil {
		panic(err)
	}
	if cfg.MicroBatch < 1 {
		panic(fmt.Sprintf("stage: micro-batch %d must be ≥ 1", cfg.MicroBatch))
	}
	if cfg.Deg == nil {
		panic("stage: nil degree model")
	}
	L := cfg.Dataset.Layers
	// The expected active-block count is a property of the graph alone;
	// compute it once for all AG stages.
	active := avgActiveBlocks(cfg)
	stages := make([]Stage, 0, 4*L)
	for l := 1; l <= L; l++ {
		stages = append(stages, buildCO(cfg, l), buildAG(cfg, l, active))
	}
	for l := L; l >= 1; l-- {
		stages = append(stages, buildLC(cfg, l), buildGC(cfg, l))
	}
	return stages
}

// numMicroBatches returns how many micro-batches one epoch (full
// vertex sweep) comprises.
func numMicroBatches(cfg Config) int {
	n := cfg.Deg.N
	b := cfg.MicroBatch
	mb := (n + b - 1) / b
	if mb < 1 {
		mb = 1
	}
	return mb
}

func buildCO(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	xbars := c.CrossbarsForMatrix(in, out)
	mvm := b * c.MVMNS()
	// Weight rewrite after each batch's gradient step, amortised over
	// the batch's micro-batches.
	wRows := float64(xbars) * float64(c.CrossbarRows)
	upd := wRows * c.RowWriteNS() / float64(numMicroBatches(cfg))
	return Stage{
		Kind:       Combination,
		Layer:      l,
		Name:       fmt.Sprintf("CO%d", l),
		TimeNS:     mvm + upd,
		MVMNS:      mvm,
		UpdateNS:   upd,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * float64(c.InputCyclesPerMVM()) * float64(xbars),
		WriteRows:  wRows / float64(numMicroBatches(cfg)),
	}
}

// segsPerVertex is the number of crossbar rows one vertex's feature
// row occupies: a differential pair per value, 64 values per row.
func segsPerVertex(c reram.Chip, featDim int) int {
	s := 2 * ((featDim + c.CrossbarCols - 1) / c.CrossbarCols)
	if s < 2 {
		s = 2
	}
	return s
}

// verticesPerPE is how many vertices one PE's rows hold.
func verticesPerPE(c reram.Chip, featDim int) int {
	v := c.RowsPerPE() / segsPerVertex(c, featDim)
	if v < 1 {
		v = 1
	}
	return v
}

// updateDue returns, per epoch (steady state): the total number of
// vertex rewrites across the stage and the rewrites of the busiest
// PE-sized write domain. Important vertices rewrite every epoch;
// the rest amortise to 1/StalePeriod per epoch.
func updateDue(cfg Config, featDim int) (totalDue, maxDomainDue float64) {
	c := cfg.Chip
	n := cfg.Deg.N
	vppe := verticesPerPE(c, featDim)

	if cfg.Plan == nil || cfg.Layout == nil {
		// Full updates, balanced by construction.
		full := float64(vppe)
		if n < vppe {
			full = float64(n)
		}
		return float64(n), full
	}

	plan := cfg.Plan
	layout := cfg.Layout
	// Aggregate important counts over PE-sized runs of layout slots.
	numDomains := (n + vppe - 1) / vppe
	impPerDomain := make([]int, numDomains)
	sizePerDomain := make([]int, numDomains)
	for slot, v := range layout.Order {
		d := slot / vppe
		sizePerDomain[d]++
		if plan.Important[v] {
			impPerDomain[d]++
		}
	}
	staleShare := 1 / float64(plan.StalePeriod)
	for d := 0; d < numDomains; d++ {
		due := float64(impPerDomain[d]) + float64(sizePerDomain[d]-impPerDomain[d])*staleShare
		if due > maxDomainDue {
			maxDomainDue = due
		}
		totalDue += due
	}
	return totalDue, maxDomainDue
}

// avgActiveBlocks returns the mean over vertices of the expected number
// of 64-vertex adjacency blocks containing at least one neighbour,
// after edge pruning.
func avgActiveBlocks(cfg Config) float64 {
	c := cfg.Chip
	n := cfg.Deg.N
	keep := 1 - cfg.PruneEdgeFraction
	if keep < 0 {
		keep = 0
	}
	var sum float64
	for _, d := range cfg.Deg.DegreesByIndex {
		sum += c.ExpectedActiveBlocks(d*keep, n)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func buildAG(cfg Config, l int, activeBlocks float64) Stage {
	_, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	n := cfg.Deg.N
	xbars := c.CrossbarsForMatrix(n, out)
	segs := float64(segsPerVertex(c, out))

	totalBlocks := float64(c.BlocksForVertices(n))
	effBlocks := c.EffectiveBlocks(activeBlocks, totalBlocks)
	// Binary adjacency input: one read cycle per streamed block.
	mvm := b * effBlocks * c.ReadLatencyNS
	if cfg.AGMVMSpeedup > 1 {
		mvm /= cfg.AGMVMSpeedup
	}

	var upd, writeRows float64
	if cfg.ReloadPenalty {
		// ReFlip keeps no up-to-date feature copy on the crossbars;
		// its column-major execution of low-degree vertices re-loads
		// source vertex features every micro-batch instead — write
		// traffic proportional to the micro-batch's edges (paper §VII-B
		// reasons (a)/(b)). Reloads restore previously verified data,
		// so they take the fast single-pulse write path across wide
		// reload lanes: cheap in time, very expensive in total write
		// energy on dense graphs.
		reloadRows := b * cfg.Deg.AvgDeg * 0.5
		upd = reloadRows * c.RowWriteNS() / 64
		writeRows = reloadRows
	} else {
		// Vertex updating: each epoch rewrites the due feature rows
		// once. Programming is write-verify (µs per row) and the chip's
		// write power budget admits only WriteLanes concurrent rows, so
		// the epoch's write wall time is the larger of the busiest PE
		// domain's serial writes and the lane-limited total, amortised
		// over the epoch's micro-batches.
		totalDue, maxDomainDue := updateDue(cfg, out)
		prog := c.ProgramRowNS()
		epochWall := math.Max(
			maxDomainDue*segs*prog,
			totalDue*segs*prog/float64(c.WriteLanes),
		)
		numMB := float64(numMicroBatches(cfg))
		upd = epochWall / numMB
		writeRows = totalDue * segs / numMB
	}

	var nocNS float64
	if cfg.NoC {
		tiles := tilesForCrossbars(xbars, c.PEsPerTile*c.CrossbarsPerPE)
		nocNS = aggregationOverheadNS(cfg.MicroBatch, out, tiles)
	}

	return Stage{
		Kind:       Aggregation,
		Layer:      l,
		Name:       fmt.Sprintf("AG%d", l),
		TimeNS:     mvm + upd + nocNS,
		MVMNS:      mvm,
		UpdateNS:   upd,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * effBlocks * segs,
		WriteRows:  writeRows,
	}
}

// Inter-tile interconnect of paper §IV-A: "ReRAM tiles are connected
// through adders and pipeline bus to support the inter-tile data
// Aggregation and transmission". An AG stage whose mapped feature
// matrix spans several tiles merges partial sums through a binary
// adder tree and streams each output vector over the bus once. The
// constants match the Table II chip: a 2 GHz bus moving 32 bytes per
// cycle, 0.5 ns per adder/bus hop.
const (
	nocHopNS         = 0.5
	nocBusBytesPerNS = 64.0
)

// adderTreeDepth is the depth of the binary tree merging partial sums
// from `tiles` tiles (0 for a single tile).
func adderTreeDepth(tiles int) int {
	if tiles <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(tiles))))
}

// aggregationOverheadNS is the per-micro-batch interconnect cost of an
// AG stage: each of the b output vectors (outDim 16-bit values) merges
// across the tiles the mapped feature matrix spans — tree depth × hop
// latency — and streams through the bus once.
func aggregationOverheadNS(b, outDim, tiles int) float64 {
	return float64(b) * (float64(adderTreeDepth(tiles))*nocHopNS + float64(outDim*2)/nocBusBytesPerNS)
}

// tilesForCrossbars converts a crossbar footprint to a tile span.
func tilesForCrossbars(crossbars, crossbarsPerTile int) int {
	return (crossbars + crossbarsPerTile - 1) / crossbarsPerTile
}

func buildLC(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	// Backward error MVM through the layer's weights (same dataflow as
	// CO, paper §IV-B).
	xbars := c.CrossbarsForMatrix(out, in)
	mvm := b * c.MVMNS()
	return Stage{
		Kind:       LossCalc,
		Layer:      l,
		Name:       fmt.Sprintf("LC%d", l),
		TimeNS:     mvm,
		MVMNS:      mvm,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * float64(c.InputCyclesPerMVM()) * float64(xbars),
	}
}

func buildGC(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	b := float64(cfg.MicroBatch)
	macs := b * float64(in) * float64(out)
	return Stage{
		Kind:     GradCompute,
		Layer:    l,
		Name:     fmt.Sprintf("GC%d", l),
		TimeNS:   macs / GCUnit,
		MVMNS:    macs / GCUnit,
		SRAMMACs: macs,
		// Not crossbar-mapped: replicas cannot shorten it.
		Replicable: false,
	}
}

// TotalCrossbars sums the single-replica footprints of all stages.
func TotalCrossbars(stages []Stage) int {
	total := 0
	for _, s := range stages {
		total += s.Crossbars
	}
	return total
}

// MaxTimeNS returns the largest per-micro-batch stage time.
func MaxTimeNS(stages []Stage) float64 {
	max := 0.0
	for _, s := range stages {
		max = math.Max(max, s.TimeNS)
	}
	return max
}

// SumTimeNS returns the sum of per-micro-batch stage times.
func SumTimeNS(stages []Stage) float64 {
	var sum float64
	for _, s := range stages {
		sum += s.TimeNS
	}
	return sum
}
