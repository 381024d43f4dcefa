// Command perfbench is the repository benchmark: it runs one named
// attack workload through the public pipeline (core.Testbed.RunCovert /
// RunKeylog, stream.Daemon), checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.py, which keeps the Go build cache and
// every output inside the checkout:
//
//	python3 perfbench/run.py --workload covert --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metric map and the seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sweep"
)

// gcPercent is pinned so that allocation-heavy layers cost the same GC
// work on every run; it is recorded with every result.
const gcPercent = 100

// workloads maps each name to its runner, in the order the README lists
// them.
var workloads = []struct {
	name string
	run  func(cfg runConfig) (*result, error)
	// serialOps runs one operation at a time with the DSP engines
	// parallel, instead of parallel operations with serial DSP: two
	// keylog sessions at once contend for memory, and rx-sweep's cells
	// differ so much in size that a small cell's latency depended on its
	// neighbour; both made the figures erratic.
	serialOps bool
}{
	{"covert", runPassWorkload, false},
	{"keylog", runPassWorkload, true},
	{"rx-sweep", runPassWorkload, true},
	{"daemon", runDaemonWorkload, false},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// At most nproc busy workers in all: sweep jobs × DSP parallelism,
	// or daemon workers (with serial DSP), is at most min(nproc, 2).
	jobs, dspParallelism, daemonWorkers int
	outDir                              string // run records and trace files
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// endToEnd holds the metrics of an untraced run; perLayer those of
	// a traced run. info holds figures printed for reading but not part
	// of the result line (per-workload metrics such as covert_ber).
	endToEnd map[string]metric
	perLayer map[string]metric
	info     map[string]metric
	notes    []string
	// series holds per-pass figures and per-operation latencies for the
	// run record.
	series map[string][]float64
	// digest is the SHA-256 over the decoded bits and keystrokes in
	// operation order.
	digest string
	// errs lists every failed check, one line each.
	errs []string
}

func newResult() *result {
	return &result{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		info:     map[string]metric{},
		series:   map[string][]float64{},
	}
}

func (r *result) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: covert, keylog, rx-sweep or daemon")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var runner func(runConfig) (*result, error)
	var names []string
	serialOps := false
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name == *name {
			runner, serialOps = w.run, w.serialOps
		}
	}
	if runner == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	debug.SetGCPercent(gcPercent)
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	cfg := runConfig{
		workload:       *name,
		seed:           *seed,
		seconds:        *seconds,
		trace:          *trace == 1,
		jobs:           workers,
		dspParallelism: 1,
		daemonWorkers:  workers,
		outDir:         *outDir,
	}
	if serialOps {
		cfg.jobs, cfg.dspParallelism = 1, workers
	}
	dsp.SetDefaultParallelism(cfg.dspParallelism)
	sweep.SetDefaultJobs(cfg.jobs)
	env := environment(cfg)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	spec, err := loadContract(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v (run from the repository root)\n", err)
		return 1
	}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	metrics := res.endToEnd
	if cfg.trace {
		metrics = res.perLayer
		res.errs = append(res.errs, reconcile(spec.PerLayer, metrics, true)...)
	} else {
		res.errs = append(res.errs, reconcile(spec.EndToEnd, metrics, false)...)
	}
	printTable(stdout, cfg, res, metrics)

	correct := len(res.errs) == 0 && res.failed == 0
	record := map[string]any{
		"env": env, "correct": correct, "attempted": res.attempted, "failed": res.failed,
		"metrics": metrics, "info": res.info, "series": res.series, "digest": res.digest, "errors": res.errs,
	}
	if err := writeJSONFile(filepath.Join(cfg.outDir, runStem(cfg)+".json"), record); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing run record: %v\n", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// printTable prints every metric of the run by name and unit, the
// informational figures, and the output digest.
func printTable(w io.Writer, cfg runConfig, res *result, metrics map[string]metric) {
	fmt.Fprintf(w, "workload %s seed %d trace %t attempted %d failed %d\n",
		cfg.workload, cfg.seed, cfg.trace, res.attempted, res.failed)
	for _, group := range []map[string]metric{metrics, res.info} {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "digest %s sha256\n", res.digest)
}

// runStem names a run's files in the output directory.
func runStem(cfg runConfig) string {
	return fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sinceS returns the seconds elapsed since t.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
