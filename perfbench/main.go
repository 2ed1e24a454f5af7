// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator and its serving layer, checks every output
// against recorded references, and prints the metrics BENCHMARK.json names
// as one JSON object on the last line of standard output.
//
//	perfbench --workload table4-bench --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics, measured with
// tracing off; their times are in reference seconds (see calib.go). With --trace 1 it carries the per-layer metrics: the run
// alternates untraced and traced passes (the difference is the tracing
// overhead), takes a CPU profile, records spans around every call into the
// program and writes them, with the profile, under the build directory when
// it exits.
//
// It must run from the repository root: it reads BENCHMARK.json for the
// metric names and units, and the test-scale golden sweep from
// internal/tables/testdata.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	record   string
}

// The workloads' concurrency. A run never starts more client connections,
// simulation workers or runner slots than the host has CPUs (nproc): it
// refuses to run instead, since the numbers define the workloads.
const (
	mixClients    = 2 // serve-mix closed-loop clients, one keep-alive connection each
	mixWorkers    = 1 // serve-mix simulation workers: the hit path keeps a core
	sweepParallel = 1 // sweep-test tables.Runner parallelism: each simulation already runs two goroutines
)

// metric is one reported value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end values by name
	layer             map[string]float64 // per-layer values by name (traced run)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation with its reason on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var workloadFns = map[string]func(*options, *tracer) (*outcome, error){
	"table4-bench": runTable4,
	"fig7-bench":   runFig7,
	"sweep-test":   runSweep,
	"serve-mix":    runServeMix,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.record, "record", "", "record the bench-scale reference cells to this file and exit")
	flag.Parse()
	o.trace = traceFlag != 0

	if o.record != "" {
		return recordReference(o.record)
	}
	nproc := runtime.NumCPU()
	if n := max(mixClients, mixWorkers, sweepParallel); n > nproc {
		return fmt.Errorf("the workloads need %d CPUs and this host has %d", n, nproc)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloadFns[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := fn(&o, tr)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	fmt.Printf("# process peak RSS %.1f MiB\n", peakRSSMB())
	out.e2e["success_pct"] = 100 * float64(out.attempted-out.failed) / float64(out.attempted)

	if tr != nil {
		dir := filepath.Join(buildDir(), "perfbench-traces")
		base := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if err := tr.write(dir, base); err != nil {
			return err
		}
		fmt.Printf("# spans and CPU profile written to %s/%s.*\n", dir, base)
	}
	metrics, err := spec.pick(out, o.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric list (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// pick returns the metrics the result line carries: every end-to-end
// metric (each must have been measured) or every per-layer metric (zero
// where the workload does not exercise that layer).
func (s *benchSpec) pick(out *outcome, traced bool) (map[string]metric, error) {
	list, vals := s.EndToEnd, out.e2e
	if traced {
		list, vals = s.PerLayer, out.layer
	}
	res := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		res[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// buildDir is where build outputs and trace files go: CARGO_TARGET_DIR
// when the caller sets it, else .bench_build in the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of vs and whether at least
// ten samples lie beyond it, the rule for reporting a percentile.
func percentile(vs []float64, q float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= 10
}
