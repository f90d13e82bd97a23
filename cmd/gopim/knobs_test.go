package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gopim"
	"gopim/internal/fault"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/simmemo"
	"gopim/internal/spmm"
)

// resolveKnobs parses args into a fresh knob table and resolves it
// against env, returning the warn output and how many values the
// resolver rejected.
func resolveKnobs(t *testing.T, args []string, env map[string]string) (knobs, string, int64) {
	t.Helper()
	ks := newKnobs()
	fs := flag.NewFlagSet("gopim", flag.ContinueOnError)
	ks.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	var warnings bytes.Buffer
	restore := obs.SetWarnOutput(&warnings)
	defer restore()
	before := mKnobsInvalid.Value()
	ks.resolve(func(name string) string { return env[name] })
	return ks, warnings.String(), mKnobsInvalid.Value() - before
}

// TestKnobTable drives every knob through the one resolver: valid and
// boundary values apply and are recorded for the manifest exactly when
// they differ from the default; invalid ones (NaN, ±Inf, out of range,
// malformed) warn in the one format, count once and fall back; the
// flag beats its environment variable. No accepted value may make
// fault.MustNew panic, churn.Config.Validate fail or spmm.Parse reject.
func TestKnobTable(t *testing.T) {
	type tc struct {
		args []string
		env  map[string]string
		knob string
		want any
		bad  string // rejected source=value ("" = valid)
	}
	var cases []tc
	valid := func(knob string, want any, text string) {
		cases = append(cases, tc{args: []string{"-" + knob, text}, knob: knob, want: want})
	}
	invalid := func(knob string, def any, texts ...string) {
		for _, text := range texts {
			cases = append(cases, tc{args: []string{"-" + knob, text}, knob: knob, want: def,
				bad: fmt.Sprintf("-%s=%q", knob, text)})
		}
	}
	malformed := []string{"banana", "NaN", "Inf", "-Inf", "+Inf"}

	valid("workers", int64(0), "0")
	valid("workers", int64(1), "1")
	valid("workers", int64(3), "3")
	invalid("workers", int64(0), append(malformed, "-3", "1.5")...)
	for _, name := range []string{"auto", "row", "blocked", "bucketed", "edge"} {
		valid("spmm", name, name)
	}
	valid("spmm", "auto", "")
	invalid("spmm", "auto", "bukceted", "0", "1", "NaN")
	valid("sim-memo", "off", "off")
	valid("sim-memo", "off", "0")
	valid("sim-memo", "on", "1")
	valid("sim-memo", "on", "yes")
	invalid("sim-memo", "on", "offf", "NaN", "Inf")
	for _, knob := range []string{"fault-rate", "churn-rate"} {
		valid(knob, 0.0, "0")
		valid(knob, 1.0, "1")
		valid(knob, 0.001, "0.001")
		valid(knob, 5e-324, "5e-324")
		invalid(knob, 0.0, append(malformed, "-0.5", "1.5", "5")...)
	}
	for _, knob := range []string{"fault-seed", "churn-seed"} {
		valid(knob, int64(0), "0")
		valid(knob, int64(1), "1")
		valid(knob, int64(-5), "-5")
		valid(knob, int64(math.MaxInt64), "9223372036854775807")
		valid(knob, int64(math.MinInt64), "-9223372036854775808")
		invalid(knob, int64(1), append(malformed, "1e3", "9223372036854775808")...)
	}
	valid("fault-verify-max", int64(1), "1")
	valid("fault-verify-max", int64(3), "3")
	valid("fault-verify-max", int64(math.MaxInt64), "9223372036854775807")
	invalid("fault-verify-max", int64(fault.DefaultVerifyMax), append(malformed, "0", "-1")...)
	valid("refresh-policy", "eager", "eager")
	valid("refresh-policy", "adaptive", "adaptive")
	valid("refresh-policy", "threshold", "")
	invalid("refresh-policy", "threshold", "bogus", "Eager", "NaN")

	// Environment fallbacks: consulted while the flag is absent or at
	// its default text, validated like the flag, never above it.
	env := func(args []string, name, val, knob string, want any, bad string) {
		cases = append(cases, tc{args: args, env: map[string]string{name: val}, knob: knob, want: want, bad: bad})
	}
	env(nil, "GOPIM_WORKERS", "5", "workers", int64(5), "")
	env([]string{"-workers", "0"}, "GOPIM_WORKERS", "5", "workers", int64(5), "")
	env([]string{"-workers", "2"}, "GOPIM_WORKERS", "5", "workers", int64(2), "")
	env(nil, "GOPIM_WORKERS", "banana", "workers", int64(0), `GOPIM_WORKERS="banana"`)
	env([]string{"-workers", "2"}, "GOPIM_WORKERS", "banana", "workers", int64(2), "")
	env(nil, "GOPIM_SPMM", "row", "spmm", "row", "")
	env([]string{"-spmm", ""}, "GOPIM_SPMM", "row", "spmm", "row", "")
	env([]string{"-spmm", "blocked"}, "GOPIM_SPMM", "row", "spmm", "blocked", "")
	env([]string{"-spmm", "auto"}, "GOPIM_SPMM", "row", "spmm", "auto", "")
	env(nil, "GOPIM_SPMM", "fast", "spmm", "auto", `GOPIM_SPMM="fast"`)
	env(nil, "GOPIM_SIM_MEMO", "no", "sim-memo", "off", "")
	env([]string{"-sim-memo", "off"}, "GOPIM_SIM_MEMO", "on", "sim-memo", "off", "")
	env(nil, "GOPIM_SIM_MEMO", "maybe", "sim-memo", "on", `GOPIM_SIM_MEMO="maybe"`)
	// Only the three documented variables exist.
	env(nil, "GOPIM_FAULT_RATE", "0.5", "fault-rate", 0.0, "")

	for _, c := range cases {
		name := strings.Join(c.args, " ")
		for k, v := range c.env {
			name = k + "=" + v + " " + name
		}
		t.Run(name, func(t *testing.T) {
			ks, warnings, rejected := resolveKnobs(t, c.args, c.env)
			if got := ks.get(c.knob); got != c.want {
				t.Fatalf("-%s = %#v, want %#v", c.knob, got, c.want)
			}
			if c.bad == "" {
				if rejected != 0 || warnings != "" {
					t.Fatalf("valid value rejected (%d): %q", rejected, warnings)
				}
			} else {
				var k *knob
				for _, row := range ks {
					if row.flag == c.knob {
						k = row
					}
				}
				line := fmt.Sprintf("gopim: warn [knobs]: ignoring invalid %s (want %s); using %v\n",
					c.bad, k.want, c.want)
				if rejected != 1 || warnings != line {
					t.Fatalf("rejected %d, warned %q; want 1 and %q", rejected, warnings, line)
				}
			}
			key := ""
			for _, k := range ks {
				if k.flag == c.knob {
					key = k.key
					if c.want == k.dflt() {
						key = ""
					}
				}
			}
			changed := ks.changed()
			if key == "" && changed != nil {
				t.Fatalf("default values recorded in the manifest: %v", changed)
			}
			if key != "" && (len(changed) != 1 || changed[key] != c.want) {
				t.Fatalf("manifest knobs = %v, want only %s=%v", changed, key, c.want)
			}
			// Every accepted value must be one the packages take.
			ks.faultModel() // must not panic
			if err := ks.churnConfig().Validate(); err != nil {
				t.Fatal(err)
			}
			if _, ok := spmm.Parse(ks.str("spmm")); !ok {
				t.Fatalf("spmm.Parse rejects %q", ks.str("spmm"))
			}
		})
	}
}

// applyKnobs resolves args with an empty environment and applies the
// result to the process-wide state, restoring the defaults when the
// test ends. It returns the warn output.
func applyKnobs(t *testing.T, args ...string) string {
	t.Helper()
	ks, warnings, _ := resolveKnobs(t, args, nil)
	t.Cleanup(func() {
		gopim.SetWorkers(0)
		spmm.SetForced(spmm.Auto)
		simmemo.SetEnabled(true)
		fault.SetDefault(nil)
	})
	ks.apply()
	return warnings
}

// Invalid -spmm and -sim-memo values leave the process on auto / on;
// valid ones reach the packages they configure.
func TestKernelFlagFallbacks(t *testing.T) {
	warnings := applyKnobs(t, "-spmm", "bukceted", "-sim-memo", "offf")
	if spmm.Forced() != spmm.Auto || !simmemo.Enabled() {
		t.Fatalf("typo'd knobs must keep the defaults: spmm=%v memo=%v", spmm.Forced(), simmemo.Enabled())
	}
	if !strings.Contains(warnings, "-spmm=") || !strings.Contains(warnings, "-sim-memo=") {
		t.Fatalf("invalid kernel knobs must hit the warn path, got %q", warnings)
	}
	applyKnobs(t, "-spmm", "edge", "-sim-memo", "off", "-workers", "3")
	if spmm.Forced() != spmm.Edge || simmemo.Enabled() || parallel.Workers() != 3 {
		t.Fatalf("valid knobs must apply: spmm=%v memo=%v workers=%d",
			spmm.Forced(), simmemo.Enabled(), parallel.Workers())
	}
}

// The -fault-* knobs install the process-wide model: an invalid rate
// leaves faults off, an invalid verify budget falls back to the
// default while the valid rate and seed survive.
func TestFaultFlagFallbacks(t *testing.T) {
	if applyKnobs(t, "-fault-rate", "-0.5"); fault.Default().Enabled() {
		t.Fatal("negative -fault-rate must leave faults off")
	}
	if applyKnobs(t, "-fault-rate", "banana"); fault.Default().Enabled() {
		t.Fatal("malformed -fault-rate must leave faults off")
	}
	warnings := applyKnobs(t, "-fault-rate", "0.001", "-fault-seed", "7", "-fault-verify-max", "0")
	cfg := fault.Default().Config()
	if cfg.Rate != 0.001 || cfg.Seed != 7 || cfg.VerifyMax != fault.DefaultVerifyMax {
		t.Fatalf("sanitised config = %+v", cfg)
	}
	if !strings.Contains(warnings, "-fault-verify-max") {
		t.Fatalf("invalid budget must hit the warn path, got %q", warnings)
	}
}

// writeManifest runs a metrics session with the given knobs and
// returns the manifest it wrote.
func writeManifest(t *testing.T, args ...string) []byte {
	t.Helper()
	resetObs(t)
	dir := t.TempDir()
	s, err := startObsSession(obsFlags{metricsPath: filepath.Join(dir, "m.txt")}, args)
	if err != nil {
		t.Fatal(err)
	}
	ks, _, _ := resolveKnobs(t, args, nil)
	s.setRunInfo(1, int(ks.int("workers")), "text", true, ks.changed())
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "m.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The manifest records the kernel knobs under "knobs" only when off
// their defaults; the autotuner's per-graph choices are provenance and
// stay top-level.
func TestManifestKernelFields(t *testing.T) {
	defer spmm.ResetChoices()
	spmm.ResetChoices()
	data := writeManifest(t)
	if bytes.Contains(data, []byte(`"knobs"`)) || bytes.Contains(data, []byte("spmm_choices")) {
		t.Fatalf("default manifest must omit knobs and choices:\n%s", data)
	}

	spmm.Record("ddi/v300", spmm.Bucketed)
	var m obs.Manifest
	if err := json.Unmarshal(writeManifest(t, "-spmm", "bucketed", "-sim-memo", "false"), &m); err != nil {
		t.Fatal(err)
	}
	if m.Knobs["spmm_strategy"] != "bucketed" || m.Knobs["sim_memo"] != "off" || len(m.Knobs) != 2 {
		t.Fatalf("manifest knobs = %v", m.Knobs)
	}
	if m.SpMMChoices["ddi/v300"] != "bucketed" {
		t.Fatalf("manifest choices = %v", m.SpMMChoices)
	}
}

// The fault knobs land under "knobs" when set, and a fault-free run's
// manifest carries no fault key at all.
func TestManifestFaultFields(t *testing.T) {
	var m obs.Manifest
	data := writeManifest(t, "-fault-rate", "0.001", "-fault-seed", "5", "-fault-verify-max", "8")
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Knobs["fault_rate"] != 0.001 || m.Knobs["fault_seed"] != 5.0 || len(m.Knobs) != 2 {
		t.Fatalf("manifest knobs = %v (fault_verify_max 8 is the default)", m.Knobs)
	}
	if data := writeManifest(t, "-fault-rate", "0"); bytes.Contains(data, []byte("fault_")) {
		t.Fatalf("fault keys leaked into a fault-free manifest:\n%s", data)
	}
}
