package parallel

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gopim/internal/obs"
)

// withWorkers runs f under a fixed worker count and restores the
// default afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestWorkersOverride(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want ≥ 1", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 1000
			var hits [n]atomic.Int32
			For(n, 7, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad block [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, hits[i].Load())
				}
			}
		})
	}
}

func TestForEmptyAndSerialFallback(t *testing.T) {
	For(0, 4, func(lo, hi int) { t.Fatal("body must not run for n=0") })
	For(-3, 4, func(lo, hi int) { t.Fatal("body must not run for n<0") })
	calls := 0
	withWorkers(t, 8, func() {
		For(3, 10, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 3 {
				t.Fatalf("serial fallback got [%d,%d)", lo, hi)
			}
		})
	})
	if calls != 1 {
		t.Fatalf("serial fallback ran body %d times", calls)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			out := Map(100, func(i int) int { return i * i })
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
				}
			}
		})
	}
}

func TestForPropagatesPanic(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", w, r)
				}
			}()
			For(64, 1, func(lo, hi int) {
				if lo <= 13 && 13 < hi {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: For returned instead of panicking", w)
		})
	}
}

// TestParseWorkers pins how SetWorkers reads the count the CLI parsed
// from -workers/GOPIM_WORKERS (the text itself is parsed by the knob
// table in cmd/gopim): a positive count applies, while 0 or a negative
// count removes the override and leaves GOMAXPROCS.
func TestParseWorkers(t *testing.T) {
	defer SetWorkers(0)
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {16, 16}, {0, procs}, {-2, procs},
	} {
		SetWorkers(7)
		SetWorkers(tc.in)
		if got := Workers(); got != tc.want {
			t.Errorf("SetWorkers(%d): Workers() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// An invalid GOPIM_WORKERS is warned about and counted once, by the
// CLI's knob table (cmd/gopim TestKnobTable pins the warn line and
// gopim.knobs_invalid). The library stays silent and registers no
// rejection counter of its own, so a bad value is never reported twice.
func TestRejectEnvWorkersWarnsAndCounts(t *testing.T) {
	t.Setenv("GOPIM_WORKERS", "banana")
	var buf bytes.Buffer
	restore := obs.SetWarnOutput(&buf)
	defer restore()
	Workers()
	if buf.Len() != 0 {
		t.Fatalf("library warned on its own: %q", buf.String())
	}
	for _, m := range obs.Default().Metrics() {
		if strings.HasPrefix(m.Name(), "parallel.") && strings.Contains(m.Name(), "invalid") {
			t.Errorf("library-side rejection counter %s is registered", m.Name())
		}
	}
}

// An invalid GOPIM_WORKERS leaves Workers() on the GOMAXPROCS default,
// on every lookup: the library never parses the variable.
func TestInvalidEnvWorkersFallsBack(t *testing.T) {
	t.Setenv("GOPIM_WORKERS", "banana")
	for i := 0; i < 2; i++ {
		if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("Workers() = %d with invalid env, want GOMAXPROCS %d", got, want)
		}
	}
}

// A valid GOPIM_WORKERS applies through SetWorkers, the call the CLI
// makes once it has resolved the knob. The library does not read the
// variable itself, so tests, examples and other embedders keep
// GOMAXPROCS until they call SetWorkers.
func TestValidEnvWorkersApplies(t *testing.T) {
	t.Setenv("GOPIM_WORKERS", "5")
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d with GOPIM_WORKERS=5 and no SetWorkers, want GOMAXPROCS %d", got, want)
	}
	withWorkers(t, 5, func() {
		if got := Workers(); got != 5 {
			t.Errorf("Workers() = %d after the CLI's SetWorkers(5)", got)
		}
	})
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4, func() {
		var total atomic.Int64
		For(8, 1, func(lo, hi int) {
			For(100, 10, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		})
		if total.Load() != 800 {
			t.Fatalf("nested total = %d, want 800", total.Load())
		}
	})
}
