// Package spmm is the sparse-kernel autotuner: it picks an SpMM
// execution strategy per graph and dispatches GCN aggregation through
// it. The PyGim observation motivating it (PAPERS.md) is that no
// single sparse format/parallelism choice wins everywhere — the right
// cut of the (row, dense-column) iteration space depends on the
// graph's degree shape.
//
// The strategy zoo lives in internal/sparsemat (row-parallel
// MulDenseInto plus blocked / bucketed / edge variants, every one
// bitwise-equal to the serial reference at any worker count — see
// strategies.go). This package owns the policy around the kernels:
//
//   - Strategy names and the global override (SetForced; Auto by
//     default, forcing a named strategy applies it to every graph).
//   - Select: a cheap analytic cost model over sparsemat.Stats (rows,
//     NNZ, degree skew) in the same features→time spirit as the
//     internal/predictor stage-latency models, but evaluated inline —
//     selection must cost O(rows), not a profiling run.
//   - Choice accounting: per-strategy Sim counters, a per-graph
//     labelled series for `bench -attrib`, and the per-graph choice
//     map run manifests record. Callers route choices through Record
//     exactly once per training run (memo replays included), which
//     keeps the counters worker-count- and memo-independent.
package spmm

import (
	"sort"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/sparsemat"
	"gopim/internal/tensor"
)

// Strategy names one SpMM execution plan.
type Strategy uint8

const (
	// Auto lets Select pick per graph — the default.
	Auto Strategy = iota
	// Row is the historic row-parallel MulDenseInto path.
	Row
	// Blocked is row-parallel with a column-tiled inner loop.
	Blocked
	// Bucketed packs rows into equal-NNZ chunks before parallelising.
	Bucketed
	// Edge column-parallelises hub rows and row-parallelises the rest.
	Edge
)

var strategyNames = [...]string{"auto", "row", "blocked", "bucketed", "edge"}

// String returns the CLI name of the strategy.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "auto"
}

// Parse maps a CLI/env value to a Strategy.
func Parse(v string) (Strategy, bool) {
	for i, n := range strategyNames {
		if v == n {
			return Strategy(i), true
		}
	}
	return Auto, false
}

// forced holds the global -spmm override; Auto means "let Select pick".
var forced atomic.Uint32

// SetForced sets the global strategy override (the CLI's -spmm knob).
func SetForced(s Strategy) { forced.Store(uint32(s)) }

// Forced returns the global override, Auto when none.
func Forced() Strategy { return Strategy(forced.Load()) }

// Selector thresholds, in terms of sparsemat.Stats. Calibrated on the
// kernels micro-suite (BenchmarkSpMMStrategies / `gopim bench -suite
// kernels`): the blocked tile pays off once rows are dense enough to
// re-walk the output row several times, bucketing pays off once the
// degree distribution is skewed enough that equal-row blocks are
// imbalanced, and the edge path needs at least one genuinely dense hub
// row to amortise its per-row fork.
const (
	selectEdgeMinHubNNZ = 256 // sparsemat's hubRowMinNNZ: below it the edge path degenerates to row
	selectEdgeMinSkew   = 16
	selectBucketMinSkew = 4
	selectBlockedMinAvg = 32
)

// Select picks a strategy for a graph from its CSR stats — the cheap
// per-graph decision at the heart of the autotuner. Pure function of
// Stats, so choices are reproducible across runs and worker counts.
func Select(st sparsemat.Stats) Strategy {
	switch {
	case st.MaxRowNNZ >= selectEdgeMinHubNNZ && st.Skew >= selectEdgeMinSkew:
		return Edge
	case st.Skew >= selectBucketMinSkew:
		return Bucketed
	case st.AvgRowNNZ >= selectBlockedMinAvg:
		return Blocked
	default:
		return Row
	}
}

// For resolves the strategy to use for matrix m: the global override
// when one is forced, otherwise Select over m's stats.
func For(m *sparsemat.CSR) Strategy {
	if f := Forced(); f != Auto {
		return f
	}
	return Select(m.Stats())
}

// MulInto computes dst = m · d with strategy s (Auto resolves via
// For). Every branch is bitwise-equal to m.MulDenseInto at any worker
// count, so callers may treat the strategy as a pure performance knob.
func MulInto(s Strategy, m *sparsemat.CSR, dst, d *tensor.Matrix) {
	if s == Auto {
		s = For(m)
	}
	switch s {
	case Blocked:
		m.MulDenseIntoBlocked(dst, d)
	case Bucketed:
		m.MulDenseIntoBucketed(dst, d)
	case Edge:
		m.MulDenseIntoEdge(dst, d)
	default:
		m.MulDenseInto(dst, d)
	}
}

// Per-strategy choice counters. Sim clock: Record is called a
// deterministic number of times per run (once per training run,
// replayed identically on memo hits), so totals are worker-count- and
// memo-independent.
var choiceCounters = map[Strategy]*obs.Counter{
	Row:      obs.NewCounter("spmm.choice_row", obs.Sim, "aggregation passes routed through the row strategy"),
	Blocked:  obs.NewCounter("spmm.choice_blocked", obs.Sim, "aggregation passes routed through the blocked strategy"),
	Bucketed: obs.NewCounter("spmm.choice_bucketed", obs.Sim, "aggregation passes routed through the bucketed strategy"),
	Edge:     obs.NewCounter("spmm.choice_edge", obs.Sim, "aggregation passes routed through the edge strategy"),
}

// choices is the per-graph strategy map drained into run manifests.
var (
	choicesMu sync.Mutex
	choices   = map[string]string{}
)

// Record accounts one resolved strategy choice for the named graph:
// the per-strategy Sim counter, the per-graph labelled series (only
// when full observability is on — same gating as accel's labelled
// series), and the manifest choice map. graph should identify the
// aggregated adjacency ("ddi/v4267"). Idempotent per (graph, s) for
// the map; counters accumulate per call.
func Record(graph string, s Strategy) {
	if s == Auto {
		return
	}
	if c := choiceCounters[s]; c != nil {
		c.Inc()
	}
	if obs.Enabled() {
		obs.NewCounter("spmm.selected"+obs.LabelSuffix("graph", graph, "strategy", s.String()),
			obs.Sim, "aggregation passes on this graph routed through this strategy").Inc()
	}
	choicesMu.Lock()
	choices[graph] = s.String()
	choicesMu.Unlock()
}

// Choices returns a copy of the per-graph strategy map, for manifests.
func Choices() map[string]string {
	choicesMu.Lock()
	defer choicesMu.Unlock()
	if len(choices) == 0 {
		return nil
	}
	out := make(map[string]string, len(choices))
	for k, v := range choices {
		out[k] = v
	}
	return out
}

// ChoiceKeys returns the recorded graph keys in sorted order (test and
// rendering helper).
func ChoiceKeys() []string {
	choicesMu.Lock()
	defer choicesMu.Unlock()
	keys := make([]string, 0, len(choices))
	for k := range choices {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ResetChoices clears the per-graph choice map (tests).
func ResetChoices() {
	choicesMu.Lock()
	choices = map[string]string{}
	choicesMu.Unlock()
}
