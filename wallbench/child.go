package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"gopim/internal/obs"
)

// workload is one benchmark workload: what a child iteration runs and
// which graphs its layer suite probes. Every workload reports the same
// end-to-end and per-layer metrics.
type workload struct {
	name string
	// ops names what "attempted" counts; op names the unit whose
	// latency op_p50_ms and op_p99_ms report.
	ops, op string
	// run executes one iteration in a child process. It calls c.ready
	// once its set-up is done and stops there when ready returns false.
	run func(c *child) (iterResult, error)
	// shapes are the graphs the layer suite probes in a traced
	// iteration: the workload's own inputs.
	shapes func(seed int64) []shape
	// suiteMoves names the end-to-end metrics the suite's layers should
	// move on this workload.
	suiteMoves string
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string { return sortedKeys(workloads) }

// child is one iteration's process-local state.
type child struct {
	seed      int64
	traced    bool
	setupOnly bool
	cpu0      time.Duration
	w         *workload
	suiteMS   map[string]float64
}

// suite runs the layer suite on the workload's shapes once per process
// and returns its per-call means in milliseconds. Workload probes that
// read the program's counters must read them before calling it: the
// suite's own calls count too.
func (c *child) suite() map[string]float64 {
	if c.suiteMS == nil {
		c.suiteMS = runSuite(c.w.shapes(c.seed))
	}
	return c.suiteMS
}

// ready reports the end of set-up to the parent, which times it. It
// returns false for set-up-only children, which must stop there.
func (c *child) ready() bool {
	fmt.Println("ready")
	c.cpu0 = cpuTime()
	return !c.setupOnly
}

// cpuSince is the process CPU time since ready.
func (c *child) cpuSince() float64 { return (cpuTime() - c.cpu0).Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("wallbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	c := &child{}
	fs.Int64Var(&c.seed, "seed", defaultSeed, "workload seed")
	fs.BoolVar(&c.traced, "trace", false, "traced iteration")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "wallbench child: unknown workload %q\n", *name)
		return 2
	}
	c.w = w
	cold := coldProblems()
	res, err := w.run(c)
	res.Problems = append(cold, res.Problems...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench child %s: %v\n", *name, err)
		return 1
	}
	if c.setupOnly {
		return 0
	}
	if c.traced {
		suite := c.suite()
		var layers []layerMetric
		for _, n := range suiteLayers {
			layers = append(layers, layerMetric{n, suite[n], "ms", w.suiteMoves})
		}
		res.Layers = append(layers, res.Layers...)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "wallbench child %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// coldProblems confirms the iteration starts cold: neither any simmemo
// domain (train, instance, accelrun, degmodel, trace, rmse, profile)
// nor the shared predictor cache has been used in this process yet.
func coldProblems() []string {
	var out []string
	for _, m := range obs.Default().Snapshot(obs.Sim) {
		memo := strings.HasPrefix(m.Name, "simmemo.") &&
			(strings.HasSuffix(m.Name, "_hits") || strings.HasSuffix(m.Name, "_misses"))
		if (memo || strings.HasPrefix(m.Name, "experiments.predictor_cache_")) && simCounter(m.Name) != 0 {
			out = append(out, "not cold at start: "+m.Name+" is non-zero")
		}
	}
	return out
}

// simField reads one field of a metric in the default obs registry;
// absent metrics read as zero.
func simField(name, field string) float64 {
	for _, m := range obs.Default().Snapshot() {
		if m.Name != name {
			continue
		}
		for _, f := range m.Fields {
			if f.Key == field {
				var v float64
				if _, err := fmt.Sscan(f.Value, &v); err == nil {
					return v
				}
			}
		}
	}
	return 0
}

func simCounter(name string) float64 { return simField(name, "count") }

// hitRatio is hits/(hits+misses) for one simmemo domain.
func hitRatio(domain string) float64 {
	h, m := simCounter("simmemo."+domain+"_hits"), simCounter("simmemo."+domain+"_misses")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// timeIt runs f and returns its wall time in milliseconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e6
}

// medianTime runs f reps times and returns the median wall time in
// milliseconds.
func medianTime(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		ts[i] = timeIt(f)
	}
	return median(ts)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
