// Command wallbench is gopim's wall-clock benchmark: four seeded
// workloads driven through the program's Go API, each measured in fresh
// child processes so every measured iteration starts as cold as one
// `gopim` invocation or one fresh daemon. See README.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
//	wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	wallbench compare <old.json> <new.json>
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are the human-readable report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// digests.go.
const defaultSeed = 1

// setup_s is the median of at least minSetupSamples set-ups. Set-ups of
// a few milliseconds are sampled further, up to maxSetupSamples or
// setupSampling in total, because process-start jitter is large against
// them. minIterations is how many measured iterations an untraced run
// makes at least, whatever its budget.
const (
	minSetupSamples = 5
	maxSetupSamples = 25
	setupSampling   = time.Second
	minIterations   = 2
)

// buildDir holds everything runs leave behind, relative to the
// checkout root (the working directory).
const buildDir = ".bench_build"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetric is one per-layer number from a traced iteration, tagged
// with the end-to-end metric it should move.
type layerMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// shareRow is one line of a layer-share report: a layer's probe cost
// scaled by the program's own call count.
type shareRow struct {
	Layer   string  `json:"layer"`
	Basis   string  `json:"basis"`
	TotalMS float64 `json:"total_ms"`
}

// iterResult is what one child iteration reports back.
type iterResult struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"digest"`
	// Problems fail the output check; Notes are only printed.
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	// Metrics are workload-specific figures the report prints as
	// medians over the untraced iterations; they are not in the result.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// OpMS are the latencies of the iteration's operations (see
	// workload.op). For plan_serve they are in request order, and Disp
	// holds each request's cache disposition (h=hit, m=miss,
	// c=coalesced, f=failed).
	OpMS []float64 `json:"op_ms"`
	Disp string    `json:"disp,omitempty"`
	// Layers are the per-layer metrics of the result (the layer suite
	// and the runtime's figures); Report are the workload's own layer
	// metrics, which only the report prints.
	Layers []layerMetric `json:"layers,omitempty"`
	Report []layerMetric `json:"report,omitempty"`
	Share  []shareRow    `json:"share,omitempty"`
}

// iteration is one finished child process.
type iteration struct {
	res    iterResult
	setupS float64
	rssMB  float64
	traced bool
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 25, "measuring budget per run")
	trace := fs.Int("trace", 0, "1 runs a traced iteration and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: wallbench --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	host := fingerprint(".")
	fmt.Printf("wallbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("host: %s\n", host)

	var iters []iteration
	spawn := func(traced, setupOnly bool) (iteration, error) {
		it, err := runChild(exe, w.name, *seed, traced, setupOnly)
		if err != nil {
			return it, fmt.Errorf("%s iteration: %w", w.name, err)
		}
		return it, nil
	}
	// An untraced run repeats one untraced iteration; a traced run
	// repeats a pair of one untraced and one traced iteration, so the
	// tracing overhead is measured on the same inputs in the same run.
	round := []bool{false}
	minRounds := minIterations
	if *trace == 1 {
		round, minRounds = []bool{false, true}, 1
	}
	// Start another round only while it is expected to finish within
	// the budget, but always run minRounds: the experiment workloads take
	// about half the budget per iteration, and the median of one is at
	// the mercy of a single slow moment.
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var last time.Duration
	for rounds := 0; rounds < minRounds || time.Since(start)+last <= budget; rounds++ {
		t0 := time.Now()
		for _, traced := range round {
			it, err := spawn(traced, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wallbench:", err)
				return 1
			}
			iters = append(iters, it)
		}
		last = time.Since(t0)
	}
	var setups []float64
	var sampled float64
	for _, it := range iters {
		setups = append(setups, it.setupS)
		sampled += it.setupS
	}
	for len(setups) < minSetupSamples ||
		(len(setups) < maxSetupSamples && sampled < setupSampling.Seconds()) {
		it, err := spawn(false, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wallbench:", err)
			return 1
		}
		setups = append(setups, it.setupS)
		sampled += it.setupS
	}

	correct, checkMsgs := checkOutputs(w.name, *seed, iters)
	attempted, failed := 0, 0
	for _, it := range iters {
		attempted += it.res.Attempted
		failed += it.res.Failed
	}
	var untraced, traced []iteration
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	e2e, ops := endToEnd(untraced, setups)
	fmt.Printf("iterations: %d untraced, %d traced; set-ups timed: %d; op latency samples: %d (op = %s)\n",
		len(untraced), len(traced), len(setups), ops, w.op)
	fmt.Println("end-to-end metrics:")
	for _, name := range sortedKeys(e2e) {
		fmt.Printf("  %-18s %14.6g %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	if extra := reportMetrics(untraced); len(extra) > 0 {
		fmt.Println("workload metrics (report only; medians over the untraced iterations):")
		for _, name := range sortedKeys(extra) {
			fmt.Printf("  %-18s %14.6g\n", name, extra[name])
		}
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Printf("  %-18s %14.6g (%d of %d %s failed)\n", "failed_ratio", ratio, failed, attempted, w.ops)
	for _, m := range checkMsgs {
		fmt.Println(m)
	}
	verdict := "PASS"
	if !correct {
		verdict = "FAIL"
	}
	fmt.Printf("output check: %s\n", verdict)

	out := e2e
	if len(traced) > 0 {
		out = reportTraced(untraced, traced)
	}
	if err := saveRecord(w.name, *seed, *trace, host, out, correct, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench: saving result record:", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd derives every workload's end-to-end metrics: medians over
// the untraced iterations and set-ups, and the op latency quantiles over
// all their ops, whose count it also returns.
func endToEnd(untraced []iteration, setups []float64) (map[string]metric, int) {
	var ops []float64
	for _, it := range untraced {
		ops = append(ops, it.res.OpMS...)
	}
	return map[string]metric{
		"setup_s":    {median(setups), "s"},
		"wall_s":     {median(collect(untraced, func(it iteration) float64 { return it.res.WallS })), "s"},
		"max_rss_mb": {median(collect(untraced, func(it iteration) float64 { return it.rssMB })), "MB"},
		"op_p50_ms":  {quantile(ops, 0.50), "ms"},
		"op_p99_ms":  {quantile(ops, 0.99), "ms"},
	}, len(ops)
}

// reportTraced prints the per-layer metrics and the layer-share report
// of the first traced iteration and the tracing overhead over all of
// them, and returns the per-layer metric set.
func reportTraced(untraced, traced []iteration) map[string]metric {
	first := traced[0].res
	out := map[string]metric{}
	fmt.Println("per-layer metrics (first traced iteration; the layer suite at this workload's graphs, then the runtime) → end-to-end metric they should move:")
	for _, l := range first.Layers {
		out[l.Name] = metric{l.Value, l.Unit}
		fmt.Printf("  %-34s %14.6g %-6s → %s\n", l.Name, l.Value, l.Unit, l.Moves)
	}
	fmt.Println("workload layer metrics (first traced iteration; report only) → end-to-end metric they should move:")
	for _, l := range first.Report {
		fmt.Printf("  %-34s %14.6g %-6s → %s\n", l.Name, l.Value, l.Unit, l.Moves)
	}
	fmt.Printf("layer-share report (probe cost × program call count; work wall %.4g s, process CPU %.4g s):\n",
		first.WallS, first.CPUS)
	var sum float64
	for _, r := range first.Share {
		sum += r.TotalMS
		fmt.Printf("  %-28s %12.4g ms  %6.1f%% of wall  %6.1f%% of CPU  (%s)\n", r.Layer, r.TotalMS,
			pct(r.TotalMS/1e3, first.WallS), pct(r.TotalMS/1e3, first.CPUS), r.Basis)
	}
	rest := first.WallS*1e3 - sum
	fmt.Printf("  %-28s %12.4g ms  %6.1f%% of wall  (negative when layers overlap across workers)\n",
		"unaccounted", rest, pct(rest/1e3, first.WallS))
	wall := func(it iteration) float64 { return it.res.WallS }
	plain, slow := median(collect(untraced, wall)), median(collect(traced, wall))
	fmt.Printf("tracing overhead (medians of %d pairs): traced wall %.6g s − untraced wall %.6g s = %+.6g s (%+.2f%%)\n",
		len(traced), slow, plain, slow-plain, pct(slow-plain, plain))
	return out
}

// reportMetrics takes the median of each workload-specific figure over
// the iterations.
func reportMetrics(its []iteration) map[string]float64 {
	out := map[string]float64{}
	for _, it := range its {
		for name := range it.res.Metrics {
			out[name] = median(collect(its, func(it iteration) float64 { return it.res.Metrics[name] }))
		}
	}
	return out
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// runChild runs one iteration in a fresh process: a new process has
// empty memo domains, an empty plan cache and no shared predictor, which
// obs.Reset alone would not give. Set-up time is the span from spawning
// the child to its "ready" line.
func runChild(exe, workload string, seed int64, traced, setupOnly bool) (iteration, error) {
	args := []string{"child", "-workload", workload, "-seed", fmt.Sprint(seed)}
	if traced {
		args = append(args, "-trace")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// GOPIM_* knobs (GOPIM_WORKERS above all) would change what is
	// measured; every run measures the default configuration.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOPIM_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return iteration{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return iteration{}, err
	}
	it := iteration{traced: traced}
	r := bufio.NewReader(stdout)
	readyLine, rerr := r.ReadString('\n')
	it.setupS = time.Since(t0).Seconds()
	var body []byte
	if rerr == nil {
		body, rerr = io.ReadAll(r)
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return it, werr
	case rerr != nil:
		return it, rerr
	case readyLine != "ready\n":
		return it, fmt.Errorf("child sent %q before ready", readyLine)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		it.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if setupOnly {
		return it, nil
	}
	if err := json.Unmarshal(body, &it.res); err != nil {
		return it, fmt.Errorf("decoding child result: %w", err)
	}
	return it, nil
}

// saveRecord writes the run's result beside its host fingerprint, so
// `wallbench compare` can tell a regression from a host change.
func saveRecord(workload string, seed int64, trace int, host hostInfo, metrics map[string]metric,
	correct bool, attempted, failed int) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{Workload: workload, Seed: seed, Trace: trace, Host: host, Metrics: metrics,
		Correct: correct, Attempted: attempted, Failed: failed, Time: time.Now().UTC().Format(time.RFC3339)}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func collect(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, 0, len(its))
	for _, it := range its {
		out = append(out, f(it))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
