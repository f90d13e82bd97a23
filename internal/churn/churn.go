// Package churn is a deterministic, seed-driven streaming-graph
// mutation engine: power-law-preserving edge insert/delete streams
// (and optional vertex arrivals), batched into epochs, that the accel
// layer threads through mapping, ISU refresh, endurance wear-out and
// replica allocation as a robustness loop (ROADMAP item 3).
//
// Determinism contract: every random quantity derives from a
// splitmix64 stream keyed by (Seed, epoch) — the internal/fault
// pattern — never by worker count or call order, so a churn-enabled
// run is byte-identical at any worker count. Epoch e's mutations
// depend on the degree state epoch e−1 left behind, so streams are
// consumed in epoch order by a single driver loop.
//
// Power-law preservation: insert endpoints are sampled proportional
// to degree+1 (preferential attachment — the generative process behind
// the catalog's Chung-Lu tails, +1 so isolated vertices can rejoin)
// and delete endpoints proportional to degree (a uniformly random
// edge's endpoint is degree-biased), so sustained churn redistributes
// mass without flattening the tail.
package churn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gopim/internal/graphgen"
)

// Policy selects how the ISU update plan reacts to degree drift.
type Policy string

const (
	// Eager recomputes the plan every epoch — maximum fidelity,
	// maximum planning work.
	Eager Policy = "eager"
	// Threshold recomputes only once the drifted-vertex fraction since
	// the last refresh reaches DriftThreshold.
	Threshold Policy = "threshold"
	// Adaptive is Threshold plus a θ re-derived from the current
	// average degree at each refresh (mapping.AdaptiveTheta), so the
	// important-set size tracks densification and sparsification.
	Adaptive Policy = "adaptive"
)

// DefaultPolicy is the refresh policy when none is configured.
const DefaultPolicy = Threshold

// DefaultDriftThreshold is the drifted-vertex fraction that triggers a
// plan refresh under the threshold/adaptive policies.
const DefaultDriftThreshold = 0.1

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case Eager, Threshold, Adaptive:
		return Policy(s), nil
	case "":
		return DefaultPolicy, nil
	}
	return "", fmt.Errorf("churn: unknown refresh policy %q (want eager, threshold or adaptive)", s)
}

// Config describes one churn scenario.
type Config struct {
	// Rate is the per-epoch edge mutation intensity: round(Rate × E)
	// insert/delete operations are drawn each epoch, where E is the
	// epoch-start edge count. 0 disables edge churn.
	Rate float64
	// VertexRate, when positive, grows the graph: round(VertexRate × N)
	// new vertices arrive each epoch, each wired to ~avg-degree
	// neighbours. Vertex arrivals resize the degree sequence, forcing
	// the mapping layer's full-remap path.
	VertexRate float64
	// Seed drives every mutation stream.
	Seed int64
	// Policy is the ISU refresh policy (default Threshold).
	Policy Policy
	// DriftThreshold overrides DefaultDriftThreshold for the
	// threshold/adaptive policies.
	DriftThreshold float64
	// DaysPerEpoch scales the endurance coupling: each churn epoch
	// represents this many days of the array's production write
	// traffic when accumulating wear (default 1).
	DaysPerEpoch float64
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1:
		return fmt.Errorf("churn: rate %v must be in [0,1]", c.Rate)
	case math.IsNaN(c.VertexRate) || c.VertexRate < 0 || c.VertexRate > 1:
		return fmt.Errorf("churn: vertex rate %v must be in [0,1]", c.VertexRate)
	case math.IsNaN(c.DriftThreshold) || c.DriftThreshold < 0 || c.DriftThreshold > 1:
		return fmt.Errorf("churn: drift threshold %v must be in [0,1]", c.DriftThreshold)
	case math.IsNaN(c.DaysPerEpoch) || math.IsInf(c.DaysPerEpoch, 0) || c.DaysPerEpoch < 0:
		return fmt.Errorf("churn: days/epoch %v must be finite and non-negative", c.DaysPerEpoch)
	}
	if c.Policy != "" {
		if _, err := ParsePolicy(string(c.Policy)); err != nil {
			return err
		}
	}
	return nil
}

// WithDefaults fills the zero-value knobs.
func (c Config) WithDefaults() Config {
	if c.Policy == "" {
		c.Policy = DefaultPolicy
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.DaysPerEpoch == 0 {
		c.DaysPerEpoch = 1
	}
	return c
}

// Enabled reports whether the configuration mutates anything.
func (c Config) Enabled() bool { return c.Rate > 0 || c.VertexRate > 0 }

// ShouldRefresh decides whether the ISU plan is recomputed given the
// drifted-vertex fraction accumulated since the last refresh.
func (c Config) ShouldRefresh(drift float64) bool {
	switch c.Policy {
	case Eager:
		return true
	default: // Threshold, Adaptive and the zero value
		th := c.DriftThreshold
		if th == 0 {
			th = DefaultDriftThreshold
		}
		return drift >= th
	}
}

// Delta summarises one epoch's mutations.
type Delta struct {
	EdgesAdded    int
	EdgesRemoved  int
	VerticesAdded int
	// Changed lists the vertex ids whose degree differs from the epoch
	// start, ascending and unique (newly arrived vertices included).
	Changed []int
}

// Stream draws per-epoch mutation deltas over a degree sequence — the
// model-level view accel's timing loop runs on, where a vertex's
// degree is the quantity of interest and edges are implicit.
type Stream struct {
	cfg Config
}

// NewStream validates the configuration and builds a stream.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg.WithDefaults()}, nil
}

// MustNewStream is NewStream for configurations known valid.
func MustNewStream(cfg Config) *Stream {
	s, err := NewStream(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the defaulted configuration.
func (s *Stream) Config() Config { return s.cfg }

// Mutate applies epoch e's mutation batch to the degree sequence and
// returns the (possibly grown) sequence plus the delta. The input
// slice is mutated in place up to its original length; endpoint
// weights are fixed at epoch start, so one epoch's draws are
// order-free within the batch.
func (s *Stream) Mutate(degs []float64, epoch int) ([]float64, Delta) {
	var d Delta
	if !s.cfg.Enabled() || len(degs) == 0 {
		return degs, d
	}
	rng := rand.New(rand.NewSource(streamSeed(s.cfg.Seed, tagEpoch, int64(epoch))))
	n0 := len(degs)
	orig := append([]float64(nil), degs...)
	insert := newPicker(degs, 1) // degree+1 weighted
	remove := newPicker(degs, 0) // degree weighted

	var totalDeg float64
	for _, g := range degs {
		totalDeg += g
	}
	ops := int(math.Round(s.cfg.Rate * totalDeg / 2))
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.5 {
			u, v := insert.pick(rng), insert.pick(rng)
			if u == v {
				continue
			}
			degs[u]++
			degs[v]++
			d.EdgesAdded++
		} else {
			u, v := remove.pick(rng), remove.pick(rng)
			if u < 0 || v < 0 || u == v || degs[u] < 1 || degs[v] < 1 {
				continue
			}
			degs[u]--
			degs[v]--
			d.EdgesRemoved++
		}
	}

	// Vertex arrivals: each newcomer attaches ~avg-degree edges to
	// degree-weighted targets among the epoch-start population.
	if newV := int(math.Round(s.cfg.VertexRate * float64(n0))); newV > 0 {
		attach := int(math.Round(totalDeg / float64(n0)))
		if attach < 1 {
			attach = 1
		}
		for i := 0; i < newV; i++ {
			degs = append(degs, 0)
			vid := len(degs) - 1
			for j := 0; j < attach; j++ {
				u := insert.pick(rng)
				degs[u]++
				degs[vid]++
				d.EdgesAdded++
			}
			d.VerticesAdded++
		}
	}

	for v := 0; v < n0; v++ {
		if degs[v] != orig[v] {
			d.Changed = append(d.Changed, v)
		}
	}
	for v := n0; v < len(degs); v++ {
		d.Changed = append(d.Changed, v)
	}
	return degs, d
}

// GraphState threads churn through an explicit edge set — the view the
// accuracy experiments need, where mutated adjacency feeds real GCN
// training. Mutations follow the same per-epoch streams as Stream but
// operate on concrete edges (tagGraph, so the two views never share a
// stream).
type GraphState struct {
	n       int
	edges   [][2]int // canonical u < v, insertion order
	present map[[2]int]bool
	degs    []int
}

// NewGraphState snapshots a graph's edge set. Edge order is the
// deterministic (u, v)-ascending adjacency walk.
func NewGraphState(g *graphgen.Graph) *GraphState {
	gs := &GraphState{n: g.N, present: map[[2]int]bool{}, degs: append([]int(nil), g.Degrees()...)}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				gs.edges = append(gs.edges, [2]int{u, v})
				gs.present[[2]int{u, v}] = true
			}
		}
	}
	return gs
}

// Edges returns the current undirected edge count.
func (gs *GraphState) Edges() int { return len(gs.edges) }

// Degrees returns the current degree sequence as float64 (the mapping
// layer's currency). Freshly allocated each call.
func (gs *GraphState) Degrees() []float64 {
	out := make([]float64, len(gs.degs))
	for i, d := range gs.degs {
		out[i] = float64(d)
	}
	return out
}

// Graph materialises the current edge set as a graphgen.Graph.
func (gs *GraphState) Graph() *graphgen.Graph {
	return graphgen.FromEdges(gs.n, gs.edges)
}

// insertRetries bounds the rejection sampling for an insert endpoint
// pair that is neither a self-loop nor an existing edge.
const insertRetries = 8

// Mutate applies epoch e's mutation batch to the edge set (vertex
// count is fixed: accuracy runs carry per-vertex features and labels,
// so arrivals make no sense there).
func (gs *GraphState) Mutate(cfg Config, epoch int) Delta {
	var d Delta
	cfg = cfg.WithDefaults()
	if cfg.Rate <= 0 || gs.n < 2 {
		return d
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, tagGraph, int64(epoch))))
	degF := gs.Degrees()
	insert := newPicker(degF, 1)
	orig := append([]int(nil), gs.degs...)
	ops := int(math.Round(cfg.Rate * float64(len(gs.edges))))
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.5 {
			for try := 0; try < insertRetries; try++ {
				u, v := insert.pick(rng), insert.pick(rng)
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				if gs.present[key] {
					continue
				}
				gs.present[key] = true
				gs.edges = append(gs.edges, key)
				gs.degs[u]++
				gs.degs[v]++
				d.EdgesAdded++
				break
			}
		} else if len(gs.edges) > 0 {
			i := rng.Intn(len(gs.edges))
			e := gs.edges[i]
			gs.edges[i] = gs.edges[len(gs.edges)-1]
			gs.edges = gs.edges[:len(gs.edges)-1]
			delete(gs.present, e)
			gs.degs[e[0]]--
			gs.degs[e[1]]--
			d.EdgesRemoved++
		}
	}
	for v := 0; v < gs.n; v++ {
		if gs.degs[v] != orig[v] {
			d.Changed = append(d.Changed, v)
		}
	}
	sort.Ints(d.Changed)
	return d
}

// picker samples vertex ids proportional to degree+bias via a prefix
// sum frozen at construction (epoch-start weights).
type picker struct {
	prefix []float64 // cumulative weights
	total  float64
}

func newPicker(degs []float64, bias float64) *picker {
	p := &picker{prefix: make([]float64, len(degs))}
	sum := 0.0
	for i, g := range degs {
		w := g + bias
		if w < 0 {
			w = 0
		}
		sum += w
		p.prefix[i] = sum
	}
	p.total = sum
	return p
}

// pick returns a weighted vertex id, or -1 when all weights are zero.
func (p *picker) pick(rng *rand.Rand) int {
	if p.total <= 0 {
		return -1
	}
	x := rng.Float64() * p.total
	return sort.SearchFloat64s(p.prefix, x)
}

// Stream tags keep the degree-model and explicit-graph views on
// independent splitmix64 streams.
const (
	tagEpoch = 0x43484e45 // "CHNE"
	tagGraph = 0x43484e47 // "CHNG"
)

// streamSeed derives the seed of stream (base, key, i) with a
// splitmix64-style mix — the fault.streamSeed pattern. The stream
// depends only on its stable identity, never on worker count or
// query order.
func streamSeed(base, key, i int64) int64 {
	z := uint64(base) ^ uint64(key)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15 * uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
