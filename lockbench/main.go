// Command lockbench is hierlock's repository benchmark. One invocation
// runs one workload for a fixed time, checks the program's outputs for
// correctness in the same run, and prints its metrics by name with
// their units; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 a separate run prints the per-layer table and
// the tracing overhead, and the JSON carries the per-layer metrics.
// See README.md for the workloads, metrics and the layer map.
//
// Run it from the repository root through run.sh, which builds lockd
// and this command from source first:
//
//	bash lockbench/run.sh --workload lockd-migrate --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	failures          []string
	metrics           []metric
}

func (r *result) fail(n int64, msgs ...string) {
	r.failed += n
	r.failures = append(r.failures, msgs...)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	lockd    string // lockd binary built from the tree under test
	repo     string // repository root, for provenance
	workdir  string // scratch space for cluster data and logs
	out      io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"sim-airline-120":     runSim,
	"lockd-local-durable": func(o options) (*result, error) { return runLive(o, localDurableSpec()) },
	"lockd-migrate":       func(o options) (*result, error) { return runLive(o, migrateSpec()) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated requests")
	fs.IntVar(&o.seconds, "seconds", 30, "measured run length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&o.lockd, "lockd", "", "path of the lockd binary (required by the lockd workloads)")
	fs.StringVar(&o.repo, "repo", ".", "repository root, recorded in the provenance")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for cluster data and logs (removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "lockbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "lockbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.out = stdout
	if o.workdir == "" {
		dir, err := os.MkdirTemp(".", ".lockbench-")
		if err != nil {
			fmt.Fprintf(stderr, "lockbench: %v\n", err)
			return 1
		}
		o.workdir = dir
	}
	defer os.RemoveAll(o.workdir)

	res, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "lockbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	fmt.Fprintf(stdout, "# failed_frac %.6g (%d of %d operations)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(o)})
	fmt.Fprintln(stdout, string(prov))
	out := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metricsJSON(res.metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "lockbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func metricsJSON(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// provenance records what was measured: the revision and whether the
// tree had local changes, the toolchain, the CPUs and the run settings.
func provenance(o options) map[string]any {
	rev, dirty := "unknown (not a git checkout)", false
	if out, err := exec.Command("git", "-C", o.repo, "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", o.repo, "status", "--porcelain").Output(); err == nil {
			dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	lockd := ""
	if o.lockd != "" {
		lockd = filepath.Base(o.lockd)
	}
	prov := map[string]any{
		"revision":   rev,
		"dirty":      dirty,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": gomaxprocs(o.workload),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"lockd":      lockd,
	}
	if n, ok := memberProcs(o.workload); ok {
		prov["lockd_gomaxprocs"] = n
	}
	return prov
}

// memberProcs is each lockd member's GOMAXPROCS on a lockd workload.
func memberProcs(workload string) (int, bool) {
	var spec liveSpec
	switch workload {
	case "lockd-local-durable":
		spec = localDurableSpec()
	case "lockd-migrate":
		spec = migrateSpec()
	default:
		return 0, false
	}
	if spec.memberProcs > 0 {
		return spec.memberProcs, true
	}
	return runtime.NumCPU(), true
}

// gomaxprocs is the benchmark process's GOMAXPROCS while it measures
// the workload.
func gomaxprocs(workload string) int {
	if strings.HasPrefix(workload, "lockd-") {
		return clientProcs
	}
	return runtime.GOMAXPROCS(0)
}

// e2e is one run's end-to-end figures, in BENCHMARK.json order.
type e2e struct {
	cyclesPerS, acqMeanUS, acqP99US float64
}

func (e e2e) metrics() []metric {
	return []metric{
		{"cycles_per_s", "1/s", e.cyclesPerS},
		{"acquire_mean_us", "us", e.acqMeanUS},
		{"acquire_p99_us", "us", e.acqP99US},
	}
}

// printOverhead prints each end-to-end metric of the traced window
// minus the untraced one.
func printOverhead(w io.Writer, untraced, traced e2e) {
	fmt.Fprintln(w, "# tracing overhead (traced − untraced)")
	u, t := untraced.metrics(), traced.metrics()
	for i := range u {
		fmt.Fprintf(w, "#   %-16s untraced %12.6g  traced %12.6g  diff %+12.6g %s (%+.1f%%)\n",
			u[i].name, u[i].value, t[i].value, t[i].value-u[i].value, u[i].unit,
			100*ratio(t[i].value-u[i].value, u[i].value))
	}
}

// printTable writes aligned "# name value unit" lines.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "# %s\n", title)
	width := 0
	for _, m := range ms {
		width = max(width, len(m.name))
	}
	for _, m := range ms {
		fmt.Fprintf(w, "#   %-*s %14.6g %s\n", width, m.name, m.value, m.unit)
	}
}
