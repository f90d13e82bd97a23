package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gopim/internal/explain"
	"gopim/internal/obs"
	"gopim/internal/spmm"
	"gopim/internal/tensor"
)

// obsFlags carries the CLI's observability switches.
type obsFlags struct {
	metricsPath  string // -metrics: snapshot file ("" = off)
	tracePath    string // -trace-out: Chrome trace JSON ("" = off)
	manifestPath string // -manifest: run manifest ("" = derive or skip)
	progress     bool   // -progress: per-experiment stderr lines
	pprofAddr    string // -pprof: debug HTTP listen address ("" = off)
}

// obsSession holds everything startObsSession opened. finish() flushes
// and closes it; both are cheap no-ops when every flag is off.
type obsSession struct {
	flags       obsFlags
	metricsFile *os.File
	traceFile   *os.File
	tracer      *obs.Tracer
	manifest    *obs.Manifest
	debugSrv    *obs.DebugServer
	// simEvents are simulated-time trace events (the gantt schedule)
	// merged into the trace file alongside the wall-clock spans.
	simEvents []obs.TraceEvent
}

// addSimEvents queues simulated-time events for the trace file; a
// no-op unless -trace-out is set.
func (s *obsSession) addSimEvents(ev []obs.TraceEvent) {
	if s.traceFile != nil {
		s.simEvents = append(s.simEvents, ev...)
	}
}

// setRunInfo records the output-shaping settings in the run manifest;
// knobs holds those off their defaults (nil leaves the key out).
func (s *obsSession) setRunInfo(seed int64, workers int, format string, fast bool, knobs map[string]any) {
	if s.manifest == nil {
		return
	}
	s.manifest.Seed = seed
	s.manifest.Workers = workers
	s.manifest.Format = format
	s.manifest.Fast = fast
	s.manifest.Knobs = knobs
}

// setExplainInfo records the headline critical-path figures in the
// run manifest. No-op without a manifest, so other subcommands'
// manifests keep their shape.
func (s *obsSession) setExplainInfo(ex *explain.Result) {
	if s.manifest == nil || ex == nil {
		return
	}
	s.manifest.ExplainBottleneck = ex.Bottleneck
	if len(ex.Stages) > ex.BottleneckStage {
		s.manifest.ExplainCritShare = ex.Stages[ex.BottleneckStage].CritShare
	}
	s.manifest.ExplainEq6GapFrac = ex.Eq6GapFrac
}

// startObsSession validates the observability flags and opens their
// outputs BEFORE any experiment runs: a typo'd path or an unbindable
// -pprof address must fail a long `gopim all` run up front, not after
// hours of simulation. With every flag off it enables nothing, so the
// hot paths keep their zero-allocation contract.
func startObsSession(f obsFlags, args []string) (*obsSession, error) {
	if err := checkDistinctPaths(f); err != nil {
		return nil, err
	}
	s := &obsSession{flags: f}
	if f.metricsPath != "" || f.tracePath != "" {
		obs.SetEnabled(true)
	}
	var err error
	if f.metricsPath != "" {
		if s.metricsFile, err = os.Create(f.metricsPath); err != nil {
			return nil, fmt.Errorf("-metrics: %w", err)
		}
	}
	if f.tracePath != "" {
		if s.traceFile, err = os.Create(f.tracePath); err != nil {
			s.close()
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		s.tracer = obs.NewTracer()
		obs.SetTracer(s.tracer)
	}
	if f.pprofAddr != "" {
		if s.debugSrv, err = obs.ServeDebug(f.pprofAddr, obs.Default()); err != nil {
			s.close()
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gopim: debug server on http://%s/debug/pprof/\n",
			s.debugSrv.Addr())
	}
	if path := s.manifestPath(); path != "" {
		// Probe writability now; the real manifest overwrites this at exit.
		probe, err := os.Create(path)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("-manifest: %w", err)
		}
		probe.Close()
		s.manifest = obs.NewManifest(args)
		s.manifest.TensorKernel = tensor.Kernel()
	}
	return s, nil
}

// checkDistinctPaths rejects observability flags that point two
// outputs at the same file: each writer opens with os.Create, so the
// later one would silently truncate the earlier one's artifact. Paths
// are compared after Clean so "./m.txt" and "m.txt" collide.
func checkDistinctPaths(f obsFlags) error {
	type out struct{ flag, path string }
	outs := []out{
		{"-metrics", f.metricsPath},
		{"-trace-out", f.tracePath},
		{"-manifest", f.manifestPath},
	}
	seen := map[string]string{}
	for _, o := range outs {
		if o.path == "" {
			continue
		}
		clean := filepath.Clean(o.path)
		if prev, dup := seen[clean]; dup {
			return fmt.Errorf("%s and %s both point at %q; give each output its own file",
				prev, o.flag, o.path)
		}
		seen[clean] = o.flag
	}
	return nil
}

// manifestPath resolves where the run manifest goes: the explicit
// -manifest flag, else derived from -metrics or -trace-out by swapping
// the extension for .manifest.json. Paths under /dev (e.g. -metrics
// /dev/stdout in CI) never derive a manifest.
func (s *obsSession) manifestPath() string {
	if s.flags.manifestPath != "" {
		return s.flags.manifestPath
	}
	for _, p := range []string{s.flags.metricsPath, s.flags.tracePath} {
		if p == "" || strings.HasPrefix(p, "/dev/") {
			continue
		}
		ext := filepath.Ext(p)
		return p[:len(p)-len(ext)] + ".manifest.json"
	}
	return ""
}

// hooks returns the per-experiment callbacks feeding -progress lines
// and the manifest's duration records.
func (s *obsSession) hooks() (onStart func(string), onDone func(string, time.Duration, error)) {
	if s.flags.progress {
		onStart = func(id string) {
			fmt.Fprintf(os.Stderr, "gopim: [%s] running %s\n",
				time.Now().Format("15:04:05"), id)
		}
	}
	if s.flags.progress || s.manifest != nil {
		onDone = func(id string, wall time.Duration, err error) {
			if s.manifest != nil {
				s.manifest.Record(id, wall, err)
			}
			if s.flags.progress {
				status := "done"
				if err != nil {
					status = "FAILED: " + err.Error()
				}
				fmt.Fprintf(os.Stderr, "gopim: [%s] %-8s %s (%.1fs)\n",
					time.Now().Format("15:04:05"), id, status, wall.Seconds())
			}
		}
	}
	return onStart, onDone
}

// finish writes every requested artifact. Called once on the way out.
func (s *obsSession) finish() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.metricsFile != nil {
		keep(writeMetricsSnapshot(s.metricsFile, s.flags.metricsPath))
	}
	if s.traceFile != nil {
		obs.SetTracer(nil)
		events := append(s.tracer.Events(), s.simEvents...)
		keep(obs.WriteTraceJSON(s.traceFile, events))
		keep(s.tracer.WriteSummary(os.Stderr))
	}
	if s.manifest != nil {
		// Autotuner provenance, drained at exit (nil when no graph
		// resolved a strategy, keeping the key out).
		s.manifest.SpMMChoices = spmm.Choices()
		s.manifest.Finish()
		keep(s.manifest.WriteFile(s.manifestPath()))
	}
	s.close()
	return firstErr
}

func (s *obsSession) close() {
	if s.metricsFile != nil {
		s.metricsFile.Close()
	}
	if s.traceFile != nil {
		s.traceFile.Close()
	}
	if s.debugSrv != nil {
		// Graceful drain with a short bound: a hung profile stream must
		// not wedge process exit.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = s.debugSrv.Shutdown(ctx)
		cancel()
	}
}

// writeMetricsSnapshot renders the registry in the format the path's
// extension picks: .csv and .json carry the Sim clock only (the
// machine-readable formats are for cross-run comparison, which only
// the deterministic clock supports); the default text format prints
// Sim metrics plainly and appends the Wall section behind '#' so
// `grep -v '^#'` recovers the comparable part.
func writeMetricsSnapshot(w io.Writer, path string) error {
	reg := obs.Default()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return reg.WriteCSV(w, obs.Sim)
	case ".json":
		return reg.WriteJSON(w, obs.Sim)
	}
	bw := bufio.NewWriter(w)
	if err := reg.WriteText(bw, obs.Sim); err != nil {
		return err
	}
	var wall strings.Builder
	if err := reg.WriteText(&wall, obs.Wall); err != nil {
		return err
	}
	fmt.Fprintln(bw, "# wall-clock metrics (scheduling-dependent, not comparable across runs):")
	for _, line := range strings.Split(strings.TrimRight(wall.String(), "\n"), "\n") {
		if line != "" {
			fmt.Fprintf(bw, "# %s\n", line)
		}
	}
	return bw.Flush()
}
