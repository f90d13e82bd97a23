// Package parallel is GoPIM's deterministic worker-pool layer: a
// bounded pool of goroutines sized by GOMAXPROCS (overridable with
// SetWorkers) behind two
// primitives — For, a blocked parallel-for over an index range, and
// Map, an ordered fan-out that collects results in input order.
//
// Determinism contract: both primitives partition work by index, so a
// result only ever depends on its own index, never on which worker
// computed it or on how many workers exist. Callers that keep
// per-index work independent (disjoint output rows, per-index derived
// RNG seeds) therefore produce byte-identical output at any worker
// count, including the serial fallback. Every hot kernel in tensor,
// sparsemat, predictor and experiments is written against that
// contract; determinism tests in those packages pin it.
//
// The pool is bounded globally: nested For/Map calls (an experiment
// fan-out whose GCN training calls parallel GEMM, say) never stack
// worker goroutines multiplicatively. Helper goroutines are acquired
// with a try-acquire against one process-wide budget, and the calling
// goroutine always participates in its own loop, so a nested call that
// finds the budget exhausted simply degrades to the serial path — it
// can never deadlock.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
)

// Pool metrics. The Sim-clock counters count quantities that depend
// only on the work submitted (calls, partitioned blocks), never on how
// many workers ran it, so they stay byte-identical across worker
// counts; everything scheduling-dependent (helpers actually spawned,
// budget denials, busy time) is Wall-clock.
var (
	mForCalls = obs.NewCounter("parallel.for_calls", obs.Sim,
		"For/Map invocations over non-empty ranges")
	mBlocks = obs.NewCounter("parallel.blocks_partitioned", obs.Sim,
		"work blocks the index ranges were partitioned into")
	mHelpers = obs.NewCounter("parallel.helpers_spawned", obs.Wall,
		"helper goroutines acquired from the global budget")
	mHelperDenied = obs.NewCounter("parallel.helper_budget_denied", obs.Wall,
		"times a For call stopped spawning because the budget was exhausted")
	mHelperBusy = obs.NewTimer("parallel.helper_busy_ns",
		"per-helper wall time from spawn to drain (worker occupancy)")
)

// overrideWorkers holds the SetWorkers value; 0 means "not set".
var overrideWorkers atomic.Int32

// Workers returns the worker count parallel kernels run at: the
// SetWorkers override if set, else GOMAXPROCS.
func Workers() int {
	if n := overrideWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count (the CLI's -workers flag).
// n < 1 removes the override.
func SetWorkers(n int) {
	if n < 1 {
		n = 0
	}
	overrideWorkers.Store(int32(n))
}

// helpers counts live helper goroutines across every concurrent
// For/Map in the process — the global pool bound.
var helpers atomic.Int64

func tryAcquireHelper() bool {
	limit := int64(Workers())
	for {
		cur := helpers.Load()
		if cur >= limit {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helpers.Add(-1) }

// For runs body over [0, n) split into contiguous blocks of at most
// grain indices. Blocks are claimed from a shared counter by up to
// Workers() goroutines (the caller included); with one worker, or when
// n ≤ grain, body runs once on the caller as body(0, n) — the serial
// fallback.
//
// body must treat [lo, hi) as exclusively owned. A panic in any block
// is re-raised on the caller after all workers drain.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	// Both counts derive from (n, grain) alone — identical at any
	// worker count, so they live on the Sim clock.
	mForCalls.Inc()
	mBlocks.Add(int64(blocks))
	w := Workers()
	if w > blocks {
		w = blocks
	}
	if w <= 1 {
		body(0, n)
		return
	}

	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicMu  sync.Mutex
		panicked any
	)
	loop := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
				aborted.Store(true)
			}
		}()
		for !aborted.Load() {
			b := next.Add(1) - 1
			if b >= int64(blocks) {
				return
			}
			lo := int(b) * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}

	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		if !tryAcquireHelper() {
			mHelperDenied.Inc()
			break
		}
		mHelpers.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			t0 := obs.NowIfEnabled()
			loop()
			mHelperBusy.ObserveSince(t0)
		}()
	}
	loop()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Serial reports whether For(n, grain, body) would run body serially
// on the caller (one effective worker). When it returns true it has
// already recorded the same Sim-clock accounting For would — both
// counters derive from (n, grain) alone — so a hot kernel can branch
// on Serial and run its block function directly, never constructing
// the escaping closure the parallel path needs, without
// parallel.for_calls or blocks_partitioned drifting across worker
// counts. When it returns false nothing is counted; the caller must
// follow up with For, which counts exactly once.
func Serial(n, grain int) bool {
	if n <= 0 {
		return true // For would return without counting, too
	}
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	w := Workers()
	if w > blocks {
		w = blocks
	}
	if w <= 1 {
		mForCalls.Inc()
		mBlocks.Add(int64(blocks))
		return true
	}
	return false
}

// Map runs fn for every index in [0, n) and returns the results in
// input order regardless of worker count or scheduling. Each index is
// its own block (grain 1), so Map suits coarse tasks — experiments,
// leave-one-out folds, profile units — not tight numeric loops.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}
