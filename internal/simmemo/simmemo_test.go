package simmemo

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"gopim/internal/obs"
)

// TestDoComputesOncePerKey pins the core memo behaviour: one
// computation per distinct key, hits for every reuse, and the value
// shared verbatim.
func TestDoComputesOncePerKey(t *testing.T) {
	c := NewCache("test_once", 8)
	var calls int
	for i := 0; i < 3; i++ {
		v := Do(c, "k", nil, func(*Tape) int { calls++; return 42 })
		if v != 42 {
			t.Fatalf("Do = %d, want 42", v)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if m, h := c.misses.Value(), c.hits.Value(); m != 1 || h != 2 {
		t.Fatalf("misses=%d hits=%d, want 1/2", m, h)
	}
}

// TestDisabledBypassesEverything: with the layer off, every call
// computes inline and no counter moves — pre-memo behaviour exactly.
func TestDisabledBypassesEverything(t *testing.T) {
	c := NewCache("test_disabled", 8)
	SetEnabled(false)
	defer SetEnabled(true)
	var calls int
	for i := 0; i < 2; i++ {
		if v := Do(c, "k", nil, func(*Tape) int { calls++; return calls }); v != calls {
			t.Fatalf("disabled Do must return this call's fn result, got %d", v)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (no caching while disabled)", calls)
	}
	if m, h := c.misses.Value(), c.hits.Value(); m != 0 || h != 0 {
		t.Fatalf("disabled calls must not touch counters, got misses=%d hits=%d", m, h)
	}
}

// TestResetAllClearsEntries: after ResetAll the next Do recomputes.
func TestResetAllClearsEntries(t *testing.T) {
	c := NewCache("test_resetall", 8)
	var calls int
	Do(c, "k", nil, func(*Tape) int { calls++; return 0 })
	ResetAll()
	Do(c, "k", nil, func(*Tape) int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (ResetAll must clear entries)", calls)
	}
}

// TestRegistryResetClearsCaches pins the obs coupling: a default-
// registry Reset (what the bench suite runs between repeats) must
// clear the memo caches too, or hit counts would depend on what ran
// before the reset.
func TestRegistryResetClearsCaches(t *testing.T) {
	c := NewCache("test_obsreset", 8)
	var calls int
	Do(c, "k", nil, func(*Tape) int { calls++; return 0 })
	obs.Default().Reset()
	Do(c, "k", nil, func(*Tape) int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (registry Reset must clear caches)", calls)
	}
	if m := c.misses.Value(); m != 1 {
		t.Fatalf("misses after reset = %d, want 1 (counters zeroed with the cache)", m)
	}
}

// TestDoCoalescesConcurrentCallers: racing same-key callers share one
// computation, and hits+misses still sum to the call count.
func TestDoCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache("test_coalesce", 8)
	const callers = 16
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(c, "k", nil, func(*Tape) int {
				mu.Lock()
				calls++
				mu.Unlock()
				return 7
			})
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if got := c.misses.Value() + c.hits.Value(); got != callers {
		t.Fatalf("hits+misses = %d, want %d", got, callers)
	}
	if c.misses.Value() != 1 {
		t.Fatalf("misses = %d, want 1 (single computation per key)", c.misses.Value())
	}
}

// TestConfigure pins the library half of the -sim-memo/GOPIM_SIM_MEMO
// knob (flag/env resolution, the warn line and the counter are the
// CLI's, see cmd/gopim TestKnobTable): memoization is on until
// SetEnabled(false), and SetEnabled switches it both ways.
func TestConfigure(t *testing.T) {
	defer SetEnabled(true)
	if !Enabled() {
		t.Fatal("memoization must default to on")
	}
	for _, on := range []bool{false, false, true, true, false} {
		SetEnabled(on)
		if Enabled() != on {
			t.Fatalf("Enabled() = %v after SetEnabled(%v)", Enabled(), on)
		}
	}
}

// TestTapeReplaysOnEveryCall pins the tape rule: a computation's
// counter adds and other records land on the registry once per call,
// hit or miss, and a nested call's records replay with its caller's
// hits.
func TestTapeReplaysOnEveryCall(t *testing.T) {
	outer, inner := NewCache("test_tape_outer", 8), NewCache("test_tape_inner", 8)
	n := obs.NewCounter("simmemo_test.tape_adds", obs.Sim, "test")
	var recs, runs int
	innerFn := func(tp *Tape) int {
		tp.Add(n, 2)
		tp.Add(n, 3) // coalesced with the add above
		tp.Record(func() { recs++ })
		return 1
	}
	outerFn := func(tp *Tape) int {
		runs++
		tp.Inc(n)
		return Do(inner, "in", tp, innerFn)
	}
	for i := 1; i <= 3; i++ {
		Do(outer, "out", nil, outerFn)
		if got := n.Value(); got != int64(6*i) || recs != i {
			t.Fatalf("call %d: counter %d, records %d; want %d, %d", i, got, recs, 6*i, i)
		}
	}
	if runs != 1 || outer.Hits() != 2 || inner.Misses() != 1 || inner.Hits() != 0 {
		t.Fatalf("runs=%d outer hits=%d inner misses=%d hits=%d, want 1/2/1/0",
			runs, outer.Hits(), inner.Misses(), inner.Hits())
	}
	// A direct call of the inner domain hits and replays its own tape.
	Do(inner, "in", nil, innerFn)
	if n.Value() != 23 || recs != 4 || inner.Hits() != 1 {
		t.Fatalf("direct inner hit: counter %d, records %d, hits %d", n.Value(), recs, inner.Hits())
	}
	// An empty key runs inline against the caller's tape.
	var tp Tape
	Do(outer, "", &tp, innerFn)
	if n.Value() != 23 || recs != 4 {
		t.Fatal("an empty key must record on the caller's tape, not the registry")
	}
	tp.applyTo(nil)
	if n.Value() != 28 || recs != 5 {
		t.Fatalf("applied tape: counter %d, records %d", n.Value(), recs)
	}
}

// TestTapeAddAllocsOnce: repeated adds to one counter coalesce, so a
// training loop's per-epoch adds allocate nothing after the first.
func TestTapeAddAllocsOnce(t *testing.T) {
	n := obs.NewCounter("simmemo_test.tape_allocs", obs.Sim, "test")
	var tp Tape
	tp.Inc(n)
	if a := testing.AllocsPerRun(100, func() { tp.Add(n, 4) }); a != 0 {
		t.Fatalf("coalesced add allocates %v times", a)
	}
}

type keyed struct{ ignored int }

func (k keyed) MemoKey() string { return "fixed" }

// TestKeyCanonical pins the encoding's equivalence classes: floats by
// bits, nil and empty slices alike, pointers by pointee, Keyers by
// MemoKey, and no collisions across part boundaries.
func TestKeyCanonical(t *testing.T) {
	type s struct {
		F  float64
		P  *int
		Xs []int
	}
	one, alsoOne := 1, 1
	same := [][2]string{
		{Key(s{F: 1, P: &one}), Key(s{F: 1, P: &alsoOne, Xs: []int{}})},
		{Key(keyed{1}), Key(keyed{2})},
		{Key("a", 1.5), Key("a", 1.5)},
	}
	for i, p := range same {
		if p[0] != p[1] {
			t.Errorf("same[%d]: keys differ", i)
		}
	}
	two := 2
	distinct := []string{
		Key(s{F: 1, P: &one}),
		Key(s{F: 1, P: &two}),
		Key(s{F: 1}),
		Key(s{F: math.Copysign(0, -1)}),
		Key(s{F: 0}),
		Key(s{F: 1, P: &one, Xs: []int{0}}),
		Key("ab", "c"),
		Key("a", "bc"),
		Key([]string{"a"}, "b"),
		Key([]string{"a", "b"}),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if len(k) != 32 {
			t.Fatalf("key %d is %d bytes, want 32", i, len(k))
		}
		if j, ok := seen[k]; ok {
			t.Errorf("distinct[%d] collides with distinct[%d]", i, j)
		}
		seen[k] = i
	}
	defer func() {
		if recover() == nil {
			t.Fatal("keying a map must panic")
		}
	}()
	Key(map[string]int{})
}

// TestTapeConcurrentReplay: coalesced callers share one stored tape
// and replay it concurrently onto one destination tape.
func TestTapeConcurrentReplay(t *testing.T) {
	c := NewCache("test_tape_concurrent", 8)
	n := obs.NewCounter("simmemo_test.tape_concurrent", obs.Sim, "test")
	const callers = 16
	var dst Tape
	var recs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(c, "k", &dst, func(tp *Tape) int {
				tp.Add(n, 2)
				tp.Record(func() { recs.Add(1) })
				return 0
			})
		}()
	}
	wg.Wait()
	dst.applyTo(nil)
	if n.Value() != 2*callers || recs.Load() != callers {
		t.Fatalf("counter %d, records %d; want %d, %d", n.Value(), recs.Load(), 2*callers, callers)
	}
}
