// Package simmemo is the input-keyed memo layer for the analytic
// simulator and its sweep harnesses. Sweep drivers (the experiments
// grids, the θ tuner, serve what-if requests) re-evaluate the same
// stage-input tuples over and over — the same synthesized instance,
// the same GCN training configuration, the same event-level schedule.
// simmemo lets each subsystem register a named cache keyed by the
// exact input fingerprint and reuse the previous result, so a sweep
// re-computes only the cells whose inputs actually changed.
//
// Determinism contract (the part that lets the hit/miss counters live
// on the Sim clock): each cache is a singleflight LRU, so for a fixed
// set of Do calls that fits the cache without mid-flight eviction, the
// number of computations equals the number of distinct keys regardless
// of scheduling or worker count. Misses count Computed outcomes; hits
// count Cached + Coalesced — both totals are pure functions of (call
// multiset, key set). Cache capacities are therefore sized well above
// any single run's working set; an eviction mid-run would make hit
// counts scheduling-dependent (the same caveat the serve response
// cache documents).
//
// The second half of the contract is on the callers: a memoized
// computation must leave the Sim-metric registry exactly as the
// un-memoized computation would have. Computations whose counters are
// pure functions of (input, result) — trace.Simulate, pipeline — just
// re-run the recording lines on a hit; computations with interleaved
// increments (gcn.Train, predictor.Generate) accumulate their counts
// into a replay struct stored beside the result and re-apply it on
// every hit. Either way, workload-semantics Sim counters (gcn.*,
// pipeline.*, trace.*, accel.*) are byte-identical with the memo on
// or off, at any worker count. The exceptions are simmemo.*'s own
// hit/miss counters and the parallel.* pool-attribution counters:
// those meter executed work, which is exactly what a memo hit elides.
//
// Values handed back on a hit are shared, not copied: cached results
// must be treated as immutable by every caller.
package simmemo

import (
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/singleflight"
)

// enabled gates every cache in the package. Default on: the memo layer
// never changes output bytes, only wall time. Stored inverted so the
// zero value means "on" without an init hook.
var disabled atomic.Bool

// Enabled reports whether memoization is active.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns the memo layer on or off globally (the -sim-memo
// knob). Turning it off makes every Do call compute inline and record
// nothing, restoring pre-memo behaviour exactly.
func SetEnabled(on bool) { disabled.Store(!on) }

// Cache is one named memo domain: a singleflight LRU plus its Sim-clock
// hit/miss counters. Construct with NewCache at package init so counter
// registration order is deterministic.
type Cache struct {
	name         string
	sf           *singleflight.Cache[string, any]
	hits, misses *obs.Counter
}

// registry tracks every cache so bench repeats can clear them all
// (ResetAll) without each consumer exporting its own reset hook.
var (
	regMu    sync.Mutex
	registry []*Cache
)

// NewCache registers a memo domain named name holding at most max
// completed entries (0 = unbounded). max must exceed the largest
// per-run working set or hit counts lose their worker-independence —
// see the package contract.
func NewCache(name string, max int) *Cache {
	c := &Cache{
		name: name,
		sf:   singleflight.New[string, any](max),
		hits: obs.NewCounter("simmemo."+name+"_hits", obs.Sim,
			"memoized "+name+" reuses (cached + coalesced); worker-count-independent"),
		misses: obs.NewCounter("simmemo."+name+"_misses", obs.Sim,
			"memoized "+name+" computations (== distinct keys absent eviction)"),
	}
	regMu.Lock()
	registry = append(registry, c)
	regMu.Unlock()
	return c
}

// Hits returns the cache's accumulated reuse count (tests and
// attribution tooling; the counters themselves feed snapshots).
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the cache's accumulated computation count.
func (c *Cache) Misses() int64 { return c.misses.Value() }

// Do returns the value for key, computing it with fn on first use and
// coalescing concurrent same-key calls. With the layer disabled it
// runs fn inline and touches no counters. The returned value is shared
// across all callers of the key: treat it as immutable.
func Do[T any](c *Cache, key string, fn func() T) T {
	v, _ := DoOutcome(c, key, fn)
	return v
}

// DoOutcome is Do plus a hit report: hit is true when the value came
// from the cache (cached or coalesced) rather than from this call's fn.
// Callers whose memoized computation bumps Sim counters internally use
// it to replay those counts from the stored value on a hit.
func DoOutcome[T any](c *Cache, key string, fn func() T) (v T, hit bool) {
	if !Enabled() {
		return fn(), false
	}
	vv, out := c.sf.DoOutcome(key, func() any { return fn() })
	if out == singleflight.Computed {
		c.misses.Inc()
	} else {
		c.hits.Inc()
	}
	return vv.(T), out != singleflight.Computed
}

// The memo caches clear whenever the default registry resets: hit/miss
// counters are only a pure function of the submitted work when the
// caches start cold with them, so a harness that resets one must reset
// both (the bench suite between repeats, the determinism tests between
// worker counts).
func init() {
	obs.OnReset(ResetAll)
}

// ResetAll clears every registered cache's completed entries. Runs
// automatically on every default-registry Reset (see init); callers
// only need it directly when clearing caches without touching metrics.
func ResetAll() {
	regMu.Lock()
	caches := append([]*Cache(nil), registry...)
	regMu.Unlock()
	for _, c := range caches {
		c.sf.Reset()
	}
}
