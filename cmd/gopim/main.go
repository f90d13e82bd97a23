// Command gopim regenerates the paper's evaluation tables and figures
// and runs ad-hoc accelerator comparisons.
//
// Usage:
//
//	gopim list                     list the regenerable experiments
//	gopim all                      regenerate every table and figure
//	gopim fig13 tab5 ...           regenerate specific artifacts
//	gopim compare <dataset>        run the six baselines on one dataset
//	gopim gantt <dataset> <model>  render the pipeline schedule
//	gopim theta <dataset>          re-derive the adaptive θ (§VI-C)
//	gopim endurance <dataset>      ISU's array-lifetime effect
//	gopim churn <dataset>          stream seeded graph mutations through
//	                               the robustness loop: incremental
//	                               re-mapping, ISU plan refreshes, wear
//	                               retirement and degraded allocation
//	                               (see -churn-rate below)
//	gopim explain <dataset> [model]  critical-path bottleneck analysis:
//	                               which stage bounds the makespan, why,
//	                               and what ±1 replica would change
//	gopim bench -label L           run the regression bench suite and
//	                               write BENCH_L.json; -attrib adds the
//	                               stage-level attribution report
//	gopim diff <old> <new>         compare two BENCH files (or raw
//	                               -metrics JSON snapshots); nonzero
//	                               exit on sim-clock regression
//	gopim serve -addr A            run the allocation-planning daemon
//	                               (POST /v1/plan; see DESIGN.md §13)
//
// Flags:
//
//	-seed N      random seed for synthetic graph generation (default 1)
//	-fast        shrink workloads for a quick smoke run
//	-format f    text, csv or markdown for experiment output
//
// Knob flags, resolved by one table in knobs.go (DESIGN.md §19). An
// invalid value warns, bumps gopim.knobs_invalid and uses the default;
// knobs off their defaults are recorded under "knobs" in the manifest.
//
//	-workers N   worker-pool size for parallel kernels and the
//	             experiment fan-out (default: GOPIM_WORKERS env, else
//	             GOMAXPROCS); output is identical at any worker count
//	-spmm s      SpMM strategy: auto (per-graph selector), row, blocked,
//	             bucketed or edge (default: GOPIM_SPMM env, else auto);
//	             every strategy is bitwise-equal, so this is purely a
//	             performance knob
//	-sim-memo v  on/off for the sweep-memoization layer (default:
//	             GOPIM_SIM_MEMO env, else on); off recomputes every
//	             sweep cell, matching pre-memo behaviour exactly
//
// Fault-injection flags (see DESIGN.md §Fault model; all off by
// default — a run without them is byte-identical to one before the
// fault layer existed):
//
//	-fault-rate p        stuck-at cell probability in [0,1]; 0 disables
//	-fault-seed N        seed for the per-crossbar fault streams
//	                     (default 1); output is a pure function of it
//	-fault-verify-max N  write-verify retry budget per row write
//	                     (default 8)
//
// Streaming-churn flags (see DESIGN.md §Streaming churn; all off by
// default, same byte-stability contract as the fault flags):
//
//	-churn-rate p        fraction of edges mutated per churn epoch in
//	                     [0,1]; 0 disables churn
//	-churn-seed N        seed for the per-epoch churn streams
//	                     (default 1); output is a pure function of it
//	-refresh-policy P    when the ISU plan is recomputed under drift:
//	                     eager, threshold or adaptive (default
//	                     threshold)
//
// Observability flags (see DESIGN.md §Observability):
//
//	-metrics f   write a metrics snapshot on exit (.csv/.json by
//	             extension, else text with wall metrics behind '#')
//	-trace-out f write wall-clock spans (and, for gantt, the simulated
//	             schedule) as Chrome trace-event JSON — load in Perfetto
//	-manifest f  write the run manifest (default: derived from
//	             -metrics/-trace-out)
//	-progress    per-experiment start/done lines on stderr
//	-pprof addr  serve net/http/pprof, expvar and /debug/metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"gopim"
	"gopim/internal/endurance"
	"gopim/internal/experiments"
	"gopim/internal/gcn"
	"gopim/internal/mapping"
	"gopim/internal/trace"
	"gopim/internal/tuner"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for synthetic graph generation")
	fast := flag.Bool("fast", false, "shrink workloads for a quick smoke run")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	ks := newKnobs()
	ks.register(flag.CommandLine)
	metricsPath := flag.String("metrics", "", "write a metrics snapshot to this file on exit (.csv/.json by extension, else text)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto)")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file (default: derived from -metrics/-trace-out)")
	progress := flag.Bool("progress", false, "report per-experiment progress on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /debug/metrics on this address (e.g. localhost:6060)")
	flag.Usage = usage
	flag.Parse()

	// Validate -format up front: under `gopim all` a typo must fail
	// before the first experiment runs, not after it.
	outFormat, err := experiments.ParseFormat(*format)
	if err != nil {
		fatal(err.Error())
	}
	// Knobs never abort the run: invalid values warn and fall back to
	// their defaults (see knobs.go).
	ks.resolve(os.Getenv)
	ks.apply()

	// As with -format, open the observability outputs and bind the
	// debug listener before any experiment runs.
	sess, err := startObsSession(obsFlags{
		metricsPath:  *metricsPath,
		tracePath:    *traceOut,
		manifestPath: *manifestPath,
		progress:     *progress,
		pprofAddr:    *pprofAddr,
	}, os.Args[1:])
	if err != nil {
		fatal(err.Error())
	}
	sess.setRunInfo(*seed, int(ks.int("workers")), *format, *fast, ks.changed())

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	opt := gopim.ExperimentOptions{Seed: *seed, Fast: *fast}

	// exitCode defers a nonzero exit (diff regressions) until after the
	// observability session has flushed its artifacts.
	exitCode := 0
	switch args[0] {
	case "list":
		for _, id := range gopim.Experiments() {
			fmt.Println(id)
		}
	case "all":
		runExperiments(sess, gopim.Experiments(), opt, outFormat)
	case "compare":
		if len(args) != 2 {
			fatal("usage: gopim compare <dataset>")
		}
		c, err := gopim.Compare(args[1], *seed)
		if err != nil {
			fatal(err.Error())
		}
		if err := c.Render(os.Stdout); err != nil {
			fatal(err.Error())
		}
	case "gantt":
		if len(args) != 3 {
			fatal("usage: gopim gantt <dataset> <Serial|GoPIM|...>")
		}
		if err := renderGantt(sess, args[1], args[2], *seed); err != nil {
			fatal(err.Error())
		}
	case "theta":
		if len(args) != 2 {
			fatal("usage: gopim theta <dataset>")
		}
		if err := searchTheta(args[1], *seed, *fast); err != nil {
			fatal(err.Error())
		}
	case "endurance":
		if len(args) != 2 {
			fatal("usage: gopim endurance <dataset>")
		}
		if err := showEndurance(args[1], *seed); err != nil {
			fatal(err.Error())
		}
	case "churn":
		if err := churnCmd(args[1:], *seed, *fast, ks.churnConfig()); err != nil {
			fatal(err.Error())
		}
	case "bench":
		if err := benchCmd(args[1:], *seed, *fast, outFormat); err != nil {
			fatal(err.Error())
		}
	case "explain":
		if err := explainCmd(sess, args[1:], *seed, outFormat); err != nil {
			fatal(err.Error())
		}
	case "serve":
		if err := serveCmd(sess, args[1:]); err != nil {
			fatal(err.Error())
		}
	case "diff":
		regressions, err := diffCmd(args[1:], outFormat)
		if err != nil {
			fatal(err.Error())
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "gopim: %d sim-clock metric(s) regressed\n", regressions)
			exitCode = 1
		}
	default:
		runExperiments(sess, args, opt, outFormat)
	}
	if err := sess.finish(); err != nil {
		fatal(err.Error())
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// runExperiments fans the experiments out across the worker pool and
// renders the results in the order the ids were given, so output is
// byte-identical at any worker count.
func runExperiments(sess *obsSession, ids []string, opt gopim.ExperimentOptions, format experiments.Format) {
	onStart, onDone := sess.hooks()
	results, err := gopim.RunExperimentsWithHooks(ids, opt,
		gopim.ExperimentHooks{OnStart: onStart, OnDone: onDone})
	if err != nil {
		fatal(err.Error())
	}
	for _, res := range results {
		if err := res.RenderAs(os.Stdout, format); err != nil {
			fatal(err.Error())
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `gopim — GoPIM (HPCA 2025) reproduction driver

usage:
  gopim [flags] list
  gopim [flags] all
  gopim [flags] <experiment-id>...
  gopim [flags] compare <dataset>
  gopim [flags] bench [-label L] [-repeats N] [-attrib]
  gopim [flags] explain [-mb N] [-json] [-no-sensitivity] [-gantt] <dataset> [model]
  gopim [flags] churn [-epochs N] [-wear-days D] <dataset>
  gopim [flags] diff [-rel R] <old.json> <new.json>
  gopim [flags] serve [-addr A] [-serve-workers N] [-queue N] [-cache N]

flags:
`)
	flag.PrintDefaults()
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "gopim:", msg)
	os.Exit(1)
}

// modelByName resolves an accelerator model from its display name.
func modelByName(name string) (gopim.Model, error) {
	for _, k := range []gopim.Model{
		gopim.Serial, gopim.SlimGNNLike, gopim.ReGraphX, gopim.ReFlip,
		gopim.GoPIMVanilla, gopim.GoPIM, gopim.PlusPP, gopim.PlusISU,
	} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (try Serial, GoPIM, ReGraphX, ReFlip, SlimGNN-like, GoPIM-Vanilla)", name)
}

// renderGantt simulates the model on the dataset and draws the
// replica-level schedule of the first 16 micro-batches. With
// -trace-out set, the same schedule also lands in the Chrome trace on
// the simulated-time process track.
func renderGantt(sess *obsSession, dataset, model string, seed int64) error {
	d, err := gopim.DatasetByName(dataset)
	if err != nil {
		return err
	}
	kind, err := modelByName(model)
	if err != nil {
		return err
	}
	r := gopim.Simulate(kind, gopim.Workload{Dataset: d, Seed: seed})
	mb := r.MicroBatches
	if mb > 16 {
		mb = 16
	}
	sched := trace.Simulate(trace.Input{
		TimesNS:      r.StageTimesNS,
		Replicas:     r.Replicas,
		MicroBatches: mb,
	})
	sess.addSimEvents(sched.ChromeTraceEvents(r.StageNames))
	fmt.Printf("%s on %s — first %d micro-batches (replica-level trace):\n",
		model, dataset, mb)
	return sched.RenderGantt(os.Stdout, 100, r.StageNames)
}

// searchTheta re-derives the adaptive update threshold for a dataset.
func searchTheta(dataset string, seed int64, fast bool) error {
	d, err := gopim.DatasetByName(dataset)
	if err != nil {
		return err
	}
	maxV, epochs := 900, 40
	if fast {
		maxV, epochs = 300, 15
	}
	inst := d.Synthesize(seed, maxV)
	res := tuner.SearchTheta(inst, tuner.Config{
		Thetas:      []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		MaxLoss:     0.01,
		Train:       gcn.Config{Epochs: epochs, Seed: seed, LR: 0.005, Dropout: 0},
		StalePeriod: epochs / 5,
		// Same content-key convention as the experiments' instance
		// cache: the sweep's θ=1 baseline and any matching experiment
		// run share one memoized training.
		InstanceKey: experiments.InstanceKey(d, seed, maxV),
	})
	fmt.Printf("θ search on %s (baseline accuracy %.2f%%):\n", dataset, res.Baseline*100)
	for _, p := range res.Points {
		fmt.Printf("  θ=%.0f%%  accuracy %6.2f%%  rows rewritten/epoch %5.1f%%\n",
			p.Theta*100, p.Accuracy*100, p.UpdatedRowFraction*100)
	}
	fmt.Printf("chosen θ: %.0f%% (paper's density rule would pick %.0f%%)\n",
		res.Chosen*100, d.AdaptiveTheta()*100)
	return nil
}

// showEndurance reports ISU's array-lifetime effect for a dataset.
func showEndurance(dataset string, seed int64) error {
	d, err := gopim.DatasetByName(dataset)
	if err != nil {
		return err
	}
	w := gopim.Workload{Dataset: d, Seed: seed}
	r := gopim.Simulate(gopim.GoPIM, w)
	deg := d.SynthDegreeModel(seed)
	plan := mapping.NewUpdatePlan(deg.DegreesByIndex, d.AdaptiveTheta(), 20)
	// Back-to-back training runs at the simulated epoch makespan — the
	// worst-case wear scenario.
	const epochsPerRun = 200
	runsPerDay := 86400e9 / (r.MakespanNS * epochsPerRun)
	prof := endurance.Profile{
		WritesPerVertexPerEpoch: 1,
		EpochsPerRun:            epochsPerRun,
		RunsPerDay:              runsPerDay,
	}
	rep := endurance.Compare(prof, plan)
	fmt.Printf("endurance on %s (θ=%.0f%%, stale period 20, %.0f back-to-back runs/day):\n",
		dataset, d.AdaptiveTheta()*100, runsPerDay)
	fmt.Printf("  full updating:        hottest rows last %10.0f training runs (%.1f days)\n",
		endurance.ReRAMWriteLimit/epochsPerRun, rep.FullDays)
	fmt.Printf("  ISU important rows:   %10.0f training runs (%.1f days)\n",
		endurance.ReRAMWriteLimit/epochsPerRun, rep.ImportantDays)
	fmt.Printf("  ISU unimportant rows: %10.0f training runs (%.1f days, %.0fx longer)\n",
		endurance.ReRAMWriteLimit/epochsPerRun*float64(plan.StalePeriod),
		rep.UnimportantDays, rep.UnimportantDays/rep.FullDays)
	fmt.Printf("  mean wear vs full:    %.1f%%\n", rep.WearRatio*100)
	fmt.Printf("  (SRAM weight manager outlasts ReRAM by %.0e at equal traffic — §IV-A)\n",
		endurance.SRAMAdvantage())
	return nil
}
