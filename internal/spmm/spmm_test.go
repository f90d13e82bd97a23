package spmm

import (
	"math/rand"
	"testing"

	"gopim/internal/sparsemat"
	"gopim/internal/tensor"
)

func TestParseRoundTrips(t *testing.T) {
	for _, s := range []Strategy{Auto, Row, Blocked, Bucketed, Edge} {
		got, ok := Parse(s.String())
		if !ok || got != s {
			t.Fatalf("Parse(%q) = %v/%v, want %v", s.String(), got, ok, s)
		}
	}
	if _, ok := Parse("diagonal"); ok {
		t.Fatal("Parse must reject unknown strategies")
	}
	if Strategy(200).String() != "auto" {
		t.Fatal("out-of-range strategies must print as auto")
	}
}

// TestConfigure pins the library half of the -spmm/GOPIM_SPMM knob
// (flag/env resolution, the warn line and the counter are the CLI's,
// see cmd/gopim TestKnobTable): every name Parse accepts forces its
// strategy through SetForced, a rejected name yields Auto, which is the
// fallback the CLI applies, and SetForced(Auto) restores selection.
func TestConfigure(t *testing.T) {
	defer SetForced(Auto)
	for _, name := range []string{"row", "blocked", "bucketed", "edge"} {
		s, ok := Parse(name)
		if !ok {
			t.Fatalf("Parse(%q) rejected a documented strategy", name)
		}
		SetForced(s)
		if Forced() != s || Forced().String() != name {
			t.Fatalf("Forced() = %v after forcing %q", Forced(), name)
		}
	}
	s, ok := Parse("fast")
	if ok || s != Auto {
		t.Fatalf("Parse(\"fast\") = %v, %v; want auto, false", s, ok)
	}
	SetForced(s)
	if Forced() != Auto {
		t.Fatalf("Forced() = %v after the fallback, want auto", Forced())
	}
}

// TestSelectThresholds walks the selector's decision boundaries.
func TestSelectThresholds(t *testing.T) {
	cases := []struct {
		name string
		st   sparsemat.Stats
		want Strategy
	}{
		{"hub+skew → edge", sparsemat.Stats{MaxRowNNZ: selectEdgeMinHubNNZ, Skew: selectEdgeMinSkew}, Edge},
		{"hub without skew → bucketed", sparsemat.Stats{MaxRowNNZ: selectEdgeMinHubNNZ, Skew: selectBucketMinSkew}, Bucketed},
		{"skew without hub → bucketed", sparsemat.Stats{MaxRowNNZ: 8, Skew: selectEdgeMinSkew}, Bucketed},
		{"dense regular → blocked", sparsemat.Stats{AvgRowNNZ: selectBlockedMinAvg, Skew: 1}, Blocked},
		{"light regular → row", sparsemat.Stats{AvgRowNNZ: 2, Skew: 1}, Row},
		{"empty → row", sparsemat.Stats{}, Row},
	}
	for _, tc := range cases {
		if got := Select(tc.st); got != tc.want {
			t.Errorf("%s: Select(%+v) = %v, want %v", tc.name, tc.st, got, tc.want)
		}
	}
}

// randCSR builds a small random graph for dispatch tests.
func randCSR(rng *rand.Rand, rows, cols, deg int) *sparsemat.CSR {
	var entries []sparsemat.Entry
	for r := 0; r < rows; r++ {
		for k := 0; k < deg; k++ {
			entries = append(entries, sparsemat.Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()})
		}
	}
	return sparsemat.NewFromEntries(rows, cols, entries)
}

// TestMulIntoDispatch: every named strategy, and Auto's resolved pick,
// must match the row reference bit for bit through the dispatcher.
func TestMulIntoDispatch(t *testing.T) {
	defer SetForced(Auto)
	SetForced(Auto)
	rng := rand.New(rand.NewSource(5))
	m := randCSR(rng, 120, 120, 5)
	d := tensor.NewRandom(rng, 120, 16, 1)
	ref := tensor.New(120, 16)
	m.MulDenseInto(ref, d)
	for _, s := range []Strategy{Auto, Row, Blocked, Bucketed, Edge} {
		got := tensor.New(120, 16)
		MulInto(s, m, got, d)
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("strategy %v: entry %d = %v, want %v", s, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// TestForHonoursForced: a forced strategy overrides Select for every
// graph; Auto restores per-graph selection.
func TestForHonoursForced(t *testing.T) {
	defer SetForced(Auto)
	rng := rand.New(rand.NewSource(9))
	m := randCSR(rng, 50, 50, 2) // light + regular: Select says Row
	SetForced(Edge)
	if got := For(m); got != Edge {
		t.Fatalf("For under forced edge = %v", got)
	}
	SetForced(Auto)
	if got := For(m); got != Select(m.Stats()) {
		t.Fatalf("For under auto = %v, want Select's %v", got, Select(m.Stats()))
	}
}

// TestRecordChoices pins the manifest choice map and its reset.
func TestRecordChoices(t *testing.T) {
	ResetChoices()
	defer ResetChoices()
	Record("g1/v100", Bucketed)
	Record("g2/v200", Row)
	Record("g1/v100", Bucketed) // idempotent for the map
	ch := Choices()
	if len(ch) != 2 || ch["g1/v100"] != "bucketed" || ch["g2/v200"] != "row" {
		t.Fatalf("Choices() = %v", ch)
	}
	if keys := ChoiceKeys(); len(keys) != 2 || keys[0] != "g1/v100" || keys[1] != "g2/v200" {
		t.Fatalf("ChoiceKeys() = %v, want sorted", keys)
	}
	// Choices hands back a copy: mutating it must not leak in.
	ch["g3/v1"] = "edge"
	if len(Choices()) != 2 {
		t.Fatal("Choices must return a copy")
	}
	// Auto is never recorded — it means "not yet resolved".
	Record("g4/v1", Auto)
	if _, ok := Choices()["g4/v1"]; ok {
		t.Fatal("Record(Auto) must be a no-op")
	}
	ResetChoices()
	if Choices() != nil {
		t.Fatal("ResetChoices must empty the map")
	}
}
