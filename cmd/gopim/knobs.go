package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gopim"
	"gopim/internal/churn"
	"gopim/internal/fault"
	"gopim/internal/obs"
	"gopim/internal/simmemo"
	"gopim/internal/spmm"
)

// The runtime knobs live in one table, resolved by one function (see
// DESIGN.md §19). Only the CLI reads the environment or knows a flag
// name; the packages a knob configures expose typed setters.

// mKnobsInvalid is Wall-side: a mistyped flag is a property of the
// invocation, not the simulated workload.
var mKnobsInvalid = obs.NewCounter("gopim.knobs_invalid", obs.Wall,
	"invalid knob values (flag or environment) replaced by their defaults")

// parser turns a knob's text into its value; want describes the
// accepted values for the warn line.
type parser struct {
	want  string
	parse func(string) (any, bool)
}

// probability accepts a float in [0,1]; NaN and ±Inf are rejected.
func probability() parser {
	return parser{"a probability in [0,1]", func(s string) (any, bool) {
		p, err := strconv.ParseFloat(s, 64)
		return p, err == nil && p >= 0 && p <= 1
	}}
}

// integer accepts an int64, in flag.Int's syntax, no smaller than min.
func integer(min int64) parser {
	want := "an integer"
	if min > math.MinInt64 {
		want = fmt.Sprintf("an integer >= %d", min)
	}
	return parser{want, func(s string) (any, bool) {
		n, err := strconv.ParseInt(s, 0, 64)
		return n, err == nil && n >= min
	}}
}

// enum accepts one of names ("a|b|c") or an alias of one, yielding the
// canonical name; the empty string yields def.
func enum(def, names string, aliases map[string]string) parser {
	return parser{names, func(s string) (any, bool) {
		if s == "" {
			return def, true
		}
		if c, ok := aliases[s]; ok {
			return c, true
		}
		for _, n := range strings.Split(names, "|") {
			if s == n {
				return n, true
			}
		}
		return nil, false
	}}
}

// knob is one table row plus its per-run state. As a flag.Value it only
// stores the text, so a malformed value never fails flag parsing.
type knob struct {
	flag, env, def string // def is the default text
	usage          string
	parser
	key string // manifest key under "knobs"

	raw string // flag text; "" until given
	val any    // resolved value
}

func (k *knob) String() string     { return k.raw }
func (k *knob) Set(s string) error { k.raw = s; return nil }
func (k *knob) dflt() any          { v, _ := k.parse(k.def); return v }

type knobs []*knob

func newKnobs() knobs {
	return knobs{
		{flag: "workers", env: "GOPIM_WORKERS", def: "0", parser: integer(0), key: "workers",
			usage: "worker-pool size `N` (0 = GOPIM_WORKERS env, else GOMAXPROCS)"},
		{flag: "spmm", env: "GOPIM_SPMM", key: "spmm_strategy",
			parser: enum("auto", "auto|row|blocked|bucketed|edge", nil),
			usage:  "SpMM strategy `s`: auto|row|blocked|bucketed|edge (default: GOPIM_SPMM env, else auto)"},
		{flag: "sim-memo", env: "GOPIM_SIM_MEMO", key: "sim_memo",
			parser: enum("on", "on|off", map[string]string{
				"true": "on", "1": "on", "yes": "on", "false": "off", "0": "off", "no": "off"}),
			usage: "sweep-memoization layer `v`: on|off (default: GOPIM_SIM_MEMO env, else on)"},
		{flag: "fault-rate", def: "0", parser: probability(), key: "fault_rate",
			usage: "stuck-at cell fault probability `p` in [0,1] (0 = faults off)"},
		{flag: "fault-seed", def: "1", parser: integer(math.MinInt64), key: "fault_seed",
			usage: "seed `N` for the deterministic fault streams"},
		{flag: "fault-verify-max", def: strconv.Itoa(fault.DefaultVerifyMax), parser: integer(1),
			key: "fault_verify_max", usage: "write-verify retry budget `N` per row write"},
		{flag: "churn-rate", def: "0", parser: probability(), key: "churn_rate",
			usage: "streaming-graph churn rate `p`: fraction of edges mutated per epoch in [0,1] (0 = churn off)"},
		{flag: "churn-seed", def: "1", parser: integer(math.MinInt64), key: "churn_seed",
			usage: "seed `N` for the deterministic churn streams"},
		{flag: "refresh-policy", key: "refresh_policy",
			parser: enum(string(churn.DefaultPolicy), "eager|threshold|adaptive", nil),
			usage:  "ISU plan refresh policy `P` under churn: eager|threshold|adaptive (default threshold)"},
	}
}

// register adds every knob to fs, spelling out a non-zero default in
// the usage line as flag.PrintDefaults does for typed flags (a knob's
// empty initial text keeps PrintDefaults from adding one itself).
func (ks knobs) register(fs *flag.FlagSet) {
	for _, k := range ks {
		usage := k.usage
		if k.def != "" && k.def != "0" {
			usage += " (default " + k.def + ")"
		}
		fs.Var(k, k.flag, usage)
	}
}

// resolve fills every row's value: the flag's; else, while the flag is
// absent or at its default text, the row's environment variable; else
// the default. A rejected value never kills the run: it warns, bumps
// gopim.knobs_invalid and falls back to the default.
func (ks knobs) resolve(getenv func(string) string) {
	for _, k := range ks {
		text, src := k.raw, "-"+k.flag
		if text == "" || text == k.def {
			text = k.def
			if k.env != "" && getenv(k.env) != "" {
				text, src = getenv(k.env), k.env
			}
		}
		var ok bool
		if k.val, ok = k.parse(text); !ok {
			k.val = k.dflt()
			mKnobsInvalid.Inc()
			obs.Warnf("knobs", "ignoring invalid %s=%q (want %s); using %v", src, text, k.want, k.val)
		}
	}
}

func (ks knobs) get(flag string) any {
	for _, k := range ks {
		if k.flag == flag {
			return k.val
		}
	}
	panic("gopim: no knob -" + flag)
}

func (ks knobs) float(flag string) float64 { return ks.get(flag).(float64) }
func (ks knobs) int(flag string) int64     { return ks.get(flag).(int64) }
func (ks knobs) str(flag string) string    { return ks.get(flag).(string) }

// changed maps the manifest key of every knob off its default to its
// value; nil when none is, so a default manifest has no "knobs" key.
func (ks knobs) changed() map[string]any {
	var m map[string]any
	for _, k := range ks {
		if k.val != k.dflt() {
			if m == nil {
				m = map[string]any{}
			}
			m[k.key] = k.val
		}
	}
	return m
}

// faultModel is the process-wide fault model; nil when faults are off.
func (ks knobs) faultModel() *fault.Model {
	if ks.float("fault-rate") == 0 {
		return nil
	}
	return fault.MustNew(fault.Config{Rate: ks.float("fault-rate"),
		Seed: ks.int("fault-seed"), VerifyMax: int(ks.int("fault-verify-max"))})
}

// churnConfig is the streaming-churn scenario `gopim churn` runs.
func (ks knobs) churnConfig() churn.Config {
	policy, _ := churn.ParsePolicy(ks.str("refresh-policy"))
	return churn.Config{Rate: ks.float("churn-rate"), Seed: ks.int("churn-seed"),
		Policy: policy}.WithDefaults()
}

// apply hands the process-wide knobs to the packages they configure.
func (ks knobs) apply() {
	gopim.SetWorkers(int(ks.int("workers")))
	strategy, _ := spmm.Parse(ks.str("spmm"))
	spmm.SetForced(strategy)
	simmemo.SetEnabled(ks.str("sim-memo") == "on")
	fault.SetDefault(ks.faultModel())
}
