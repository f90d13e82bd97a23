package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gopim/internal/obs"
	"gopim/internal/tensor"
)

// resetObs restores global observability state a session mutated.
func resetObs(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.SetTracer(nil)
	})
}

// The observability flags must validate when the session starts — i.e.
// before any experiment runs — failing fast on unusable paths and
// addresses and succeeding on good ones.
func TestObsFlagPlumbing(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		flags func() obsFlags
		ok    bool
		check func(t *testing.T, s *obsSession)
	}{
		{
			name:  "all off",
			flags: func() obsFlags { return obsFlags{} },
			ok:    true,
			check: func(t *testing.T, s *obsSession) {
				if obs.Enabled() {
					t.Error("observability enabled with every flag off")
				}
				if s.manifest != nil {
					t.Error("manifest created with every flag off")
				}
			},
		},
		{
			name: "metrics file",
			flags: func() obsFlags {
				return obsFlags{metricsPath: filepath.Join(dir, "m.txt")}
			},
			ok: true,
			check: func(t *testing.T, s *obsSession) {
				if !obs.Enabled() {
					t.Error("-metrics must enable observability")
				}
				if s.metricsFile == nil {
					t.Error("metrics file not opened up front")
				}
				if got := s.manifestPath(); got != filepath.Join(dir, "m.manifest.json") {
					t.Errorf("derived manifest path = %q", got)
				}
			},
		},
		{
			name: "trace file installs tracer",
			flags: func() obsFlags {
				return obsFlags{tracePath: filepath.Join(dir, "t.json")}
			},
			ok: true,
			check: func(t *testing.T, s *obsSession) {
				if obs.CurrentTracer() == nil {
					t.Error("-trace-out must install the tracer")
				}
			},
		},
		{
			name:  "progress only",
			flags: func() obsFlags { return obsFlags{progress: true} },
			ok:    true,
			check: func(t *testing.T, s *obsSession) {
				onStart, onDone := s.hooks()
				if onStart == nil || onDone == nil {
					t.Error("-progress must produce both hooks")
				}
			},
		},
		{
			name: "metrics path in missing directory fails",
			flags: func() obsFlags {
				return obsFlags{metricsPath: filepath.Join(dir, "no/such/dir/m.txt")}
			},
			ok: false,
		},
		{
			name: "trace path in missing directory fails",
			flags: func() obsFlags {
				return obsFlags{tracePath: filepath.Join(dir, "no/such/dir/t.json")}
			},
			ok: false,
		},
		{
			name:  "unbindable pprof address fails",
			flags: func() obsFlags { return obsFlags{pprofAddr: "256.0.0.1:bad"} },
			ok:    false,
		},
		{
			name: "valid pprof address binds",
			flags: func() obsFlags {
				return obsFlags{pprofAddr: "127.0.0.1:0"}
			},
			ok: true,
			check: func(t *testing.T, s *obsSession) {
				if s.debugSrv == nil {
					t.Error("debug server not bound")
				}
			},
		},
		{
			name: "dev path derives no manifest",
			flags: func() obsFlags {
				return obsFlags{metricsPath: "/dev/null"}
			},
			ok: true,
			check: func(t *testing.T, s *obsSession) {
				if got := s.manifestPath(); got != "" {
					t.Errorf("manifest path for /dev metrics = %q, want none", got)
				}
			},
		},
		{
			name: "metrics and trace sharing a file fails",
			flags: func() obsFlags {
				p := filepath.Join(dir, "shared.json")
				return obsFlags{metricsPath: p, tracePath: p}
			},
			ok: false,
		},
		{
			name: "manifest colliding with metrics fails",
			flags: func() obsFlags {
				p := filepath.Join(dir, "collide.txt")
				return obsFlags{metricsPath: p, manifestPath: p}
			},
			ok: false,
		},
		{
			name: "unclean spelling of the same path fails",
			flags: func() obsFlags {
				return obsFlags{
					metricsPath: filepath.Join(dir, "m3.txt"),
					tracePath:   filepath.Join(dir, ".", "m3.txt") + string(filepath.Separator) + ".." + string(filepath.Separator) + "m3.txt",
				}
			},
			ok: false,
		},
		{
			name: "distinct paths pass",
			flags: func() obsFlags {
				return obsFlags{
					metricsPath:  filepath.Join(dir, "d1.txt"),
					tracePath:    filepath.Join(dir, "d2.json"),
					manifestPath: filepath.Join(dir, "d3.json"),
				}
			},
			ok: true,
		},
		{
			name: "explicit manifest flag wins",
			flags: func() obsFlags {
				return obsFlags{
					metricsPath:  filepath.Join(dir, "m2.txt"),
					manifestPath: filepath.Join(dir, "run.json"),
				}
			},
			ok: true,
			check: func(t *testing.T, s *obsSession) {
				if got := s.manifestPath(); got != filepath.Join(dir, "run.json") {
					t.Errorf("manifest path = %q", got)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetObs(t)
			s, err := startObsSession(tc.flags(), []string{"-fast", "all"})
			if (err == nil) != tc.ok {
				t.Fatalf("startObsSession err = %v, want ok=%v", err, tc.ok)
			}
			if err != nil {
				return
			}
			defer s.close()
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// A full session round-trip: finish() must leave a non-empty snapshot,
// a parseable trace and a manifest on disk.
func TestObsSessionFinishWritesArtifacts(t *testing.T) {
	resetObs(t)
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.txt")
	tPath := filepath.Join(dir, "t.json")
	s, err := startObsSession(obsFlags{metricsPath: mPath, tracePath: tPath},
		[]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	obs.NewCounter("cmdtest.finish_counter", obs.Sim, "test").Inc()
	sp := obs.StartSpan("cmdtest.span")
	sp.End()
	if s.manifest == nil {
		t.Fatal("no manifest for file-backed session")
	}
	s.manifest.Record("fig0", 0, nil)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "cmdtest.finish_counter counter count=1") {
		t.Errorf("snapshot missing test counter:\n%s", metrics)
	}
	traceJSON, err := os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traceJSON), `"cmdtest.span"`) {
		t.Errorf("trace missing span:\n%s", traceJSON)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "m.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"fig0"`) {
		t.Errorf("manifest missing experiment record:\n%s", manifest)
	}
	if want := `"tensor_kernel": "` + tensor.Kernel() + `"`; !strings.Contains(string(manifest), want) {
		t.Errorf("manifest missing %s:\n%s", want, manifest)
	}
}

// The text snapshot keeps wall-clock metrics behind '#' so that
// stripping comments yields the deterministic Sim-only view.
func TestWriteMetricsSnapshotTextSeparatesClocks(t *testing.T) {
	resetObs(t)
	obs.NewCounter("cmdtest.sim_line", obs.Sim, "test").Inc()
	obs.NewCounter("cmdtest.wall_line", obs.Wall, "test").Inc()
	var b strings.Builder
	if err := writeMetricsSnapshot(&b, "m.txt"); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "cmdtest.sim_line") && strings.HasPrefix(line, "#") {
			t.Errorf("sim metric behind comment: %q", line)
		}
		if strings.Contains(line, "cmdtest.wall_line") && !strings.HasPrefix(line, "#") {
			t.Errorf("wall metric not behind comment: %q", line)
		}
	}
}
