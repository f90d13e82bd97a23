package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo identifies where a result was measured. Results from hosts
// that differ in any field but Git and Source are incomparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Git is `git describe --always --dirty`, or "none" outside a git
	// checkout; Source hashes the Go sources either way.
	Git    string `json:"git"`
	Source string `json:"source"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s git=%s src=%.12s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Git, h.Source)
}

// sameMachine reports whether two results were measured on comparable
// hosts, and if not, why.
func (h hostInfo) sameMachine(o hostInfo) (bool, string) {
	var diffs []string
	add := func(field string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	add("cpu", h.CPU, o.CPU)
	add("nproc", h.NProc, o.NProc)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go", h.GoVersion, o.GoVersion)
	add("os/arch", h.OSArch, o.OSArch)
	return len(diffs) == 0, strings.Join(diffs, "; ")
}

func fingerprint(root string) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Git:        "none",
		Source:     sourceDigest(root),
	}
	abs, _ := filepath.Abs(root)
	top, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel").Output()
	if err == nil && strings.TrimSpace(string(top)) == abs {
		if d, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output(); err == nil {
			h.Git = strings.TrimSpace(string(d))
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, outside
// dot-directories, in path order: the program version even where git
// is absent.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is one run's saved result.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Time      string            `json:"time"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two saved results metric by metric against the
// bounds in BENCHMARK.json. Results from different hosts are reported
// as incomparable rather than judged.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wallbench compare <old.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wallbench compare: %s: %v\n", p, err)
			return 1
		}
	}
	old, cur := recs[0], recs[1]
	fmt.Printf("old: %s seed=%d trace=%d %s\nnew: %s seed=%d trace=%d %s\n",
		old.Workload, old.Seed, old.Trace, old.Host, cur.Workload, cur.Seed, cur.Trace, cur.Host)
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Println("incomparable: different workloads or trace modes")
		return 0
	}
	if ok, why := old.Host.sameMachine(cur.Host); !ok {
		fmt.Printf("incomparable: measured on different hosts (%s); no verdicts\n", why)
		return 0
	}
	var spec benchSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil || json.Unmarshal(b, &spec) != nil {
		fmt.Println("no readable BENCHMARK.json in the working directory: changes are shown without verdicts")
	}
	regressed := false
	for _, name := range sortedKeys(cur.Metrics) {
		o, ok := old.Metrics[name]
		n := cur.Metrics[name]
		if !ok {
			fmt.Printf("  %-34s %14.6g %s  (new)\n", name, n.Value, n.Unit)
			continue
		}
		change := 0.0
		if o.Value != 0 {
			change = (n.Value - o.Value) / o.Value
		}
		verdict := "no bound (per-layer)"
		for _, m := range spec.EndToEnd {
			if m.Name != name {
				continue
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict = "within bound"
			if worse > m.Bound {
				verdict = fmt.Sprintf("REGRESSED (bound %.0f%%)", m.Bound*100)
				regressed = true
			}
		}
		fmt.Printf("  %-34s %14.6g → %-14.6g %s %+7.2f%%  %s\n", name, o.Value, n.Value, n.Unit, change*100, verdict)
	}
	if regressed {
		return 1
	}
	return 0
}
