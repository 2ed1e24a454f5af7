// Package bench measures and records simulator throughput: simulated cycles
// per wall-clock second on the Table 4 memory-bandwidth kernels, plus the
// wall clock of the full `tartables -all` sweep. Results are versioned rows
// in results/BENCH_sim.json, so the repository carries its own performance
// trajectory and CI can fail a change that regresses it.
//
// Every kernel is measured on the default engine and with the chip pinned to
// the legacy single-stepping loop, in interleaved pairs. The single-step
// number is the stable reference that makes rows comparable across hosts —
// CI machines differ in absolute speed, but the engine-over-single-step
// ratio is a property of the code, so the regression gate compares ratios,
// not raw cycles/sec. The double run doubles as a production bit-identity
// smoke test: both engines must report exactly the same simulated cycle
// count or the row is refused.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tables"
	"repro/internal/workloads"
)

// Schema is the BENCH_sim.json format version.
const Schema = 1

// Kernels is the measured set: the Table 4 bandwidth microkernels, the
// memory-bound workloads whose simulation speed gates every sweep.
var Kernels = []string{
	"streams_copy", "streams_scale", "streams_add", "streams_triadd",
	"rndcopy", "rndmemscale",
}

// KernelResult is one kernel's throughput measurement.
type KernelResult struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	Scale  string `json:"scale"`
	// Cycles is the simulated cycle count — identical for both engines by
	// the bit-identity contract, which Run enforces.
	Cycles uint64 `json:"cycles"`
	// Default engine: median wall seconds and simulated cycles per wall
	// second.
	WallS float64 `json:"wall_s"`
	CPS   float64 `json:"cycles_per_sec"`
	MCPS  float64 `json:"mcps"`
	// Legacy single-stepping loop, the cross-host reference.
	SingleStepWallS float64 `json:"single_step_wall_s"`
	SingleStepCPS   float64 `json:"single_step_cycles_per_sec"`
	// Speedup is the median over back-to-back (single-step, default) run
	// pairs of single-step wall / default wall: the host-independent figure
	// of merit.
	Speedup float64 `json:"speedup"`
}

// Row is one benchmark session: a labelled set of kernel measurements plus
// the full-sweep wall clock, stamped with the host environment.
type Row struct {
	Label      string         `json:"label"`
	When       string         `json:"when"`
	Host       string         `json:"host"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Engine     string         `json:"engine"`
	Kernels    []KernelResult `json:"kernels"`
	// SweepWallS is the wall clock of the tartables -all -scale <scale>
	// equivalent (sequential, default engine), the headline ROADMAP number.
	SweepWallS float64 `json:"sweep_wall_s"`
	SweepScale string  `json:"sweep_scale"`
	// WarmupReuse is the checkpoint feature's payoff measurement (absent in
	// rows from builds that predate it).
	WarmupReuse *WarmupReuse `json:"warmup_reuse,omitempty"`
}

// WarmupReuse records the warm-up snapshot payoff: a sweep over a
// post-warm-up knob on a warm-up benchmark, run once cold (every point
// simulates its own warm-up) and once forking every later point from the
// first point's post-warm-up snapshot. Both sweeps must produce
// bit-identical per-point statistics; the speedup is the host-independent
// cold/reuse sim-loop wall-clock ratio.
type WarmupReuse struct {
	Bench        string  `json:"bench"`
	Config       string  `json:"config"`
	Scale        string  `json:"scale"`
	Points       int     `json:"points"`
	WarmupCycles uint64  `json:"warmup_cycles"`
	ColdWallS    float64 `json:"cold_wall_s"`
	ReuseWallS   float64 `json:"reuse_wall_s"`
	Speedup      float64 `json:"speedup"`
	// Ceiling is the Amdahl bound on Speedup from the simulated cycles
	// (reuseCeiling); a measurement above it is refused.
	Ceiling float64 `json:"ceiling,omitempty"`
}

// File is the whole BENCH_sim.json document.
type File struct {
	Schema int   `json:"schema"`
	Rows   []Row `json:"rows"`
}

// Options configures a Run.
type Options struct {
	Label string
	Scale workloads.Scale
	// Engine names the default engine in the emitted row (informational).
	Engine string
	// SkipSweep omits the full-sweep wall-clock measurement (tests).
	SkipSweep bool
	// Progress, when non-nil, receives one line per measurement step.
	Progress func(string)
}

// Run measures every kernel on both engines (and optionally the full sweep)
// and returns the finished row. It fails if the two engines disagree on any
// simulated cycle count — that is a bit-identity violation, and a throughput
// number for a wrong simulation is worse than none.
func Run(opts Options) (*Row, error) {
	host, _ := os.Hostname()
	row := &Row{
		Label:      opts.Label,
		When:       time.Now().UTC().Format(time.RFC3339),
		Host:       host,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Engine:     opts.Engine,
		SweepScale: opts.Scale.String(),
	}
	cfg := sim.T()
	for _, name := range Kernels {
		b, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		cycles, defWall, ssWall, speedup, err := timeKernel(b, cfg, opts.Scale)
		if err != nil {
			return nil, err
		}
		kr := KernelResult{
			Name: name, Config: cfg.Name, Scale: opts.Scale.String(),
			Cycles: cycles,
			WallS:  defWall, CPS: float64(cycles) / defWall, MCPS: float64(cycles) / defWall / 1e6,
			SingleStepWallS: ssWall, SingleStepCPS: float64(cycles) / ssWall,
			Speedup: speedup,
		}
		row.Kernels = append(row.Kernels, kr)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-16s %12d cycles  %8.2f Mcps  (single-step %8.2f Mcps, %.2fx)",
				name, kr.Cycles, kr.MCPS, kr.SingleStepCPS/1e6, kr.Speedup))
		}
	}
	if !opts.SkipSweep {
		if opts.Progress != nil {
			opts.Progress("full sweep (tartables -all equivalent, sequential)...")
		}
		wall, err := timeSweep(opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		row.SweepWallS = wall
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("sweep wall clock: %.2f s", wall))
		}
	}
	wr, err := MeasureWarmupReuse(opts.Scale)
	if err != nil {
		return nil, fmt.Errorf("warmup reuse: %w", err)
	}
	row.WarmupReuse = wr
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("warm-up reuse (%s, %d points): cold %.3f s, forked %.3f s — %.2fx (ceiling %.2fx)",
			wr.Bench, wr.Points, wr.ColdWallS, wr.ReuseWallS, wr.Speedup, wr.Ceiling))
	}
	return row, nil
}

// MeasureWarmupReuse times a physical-register sweep on rndcopy — the
// warm-up benchmark, over a knob the warm-up cannot observe — cold and with
// warm-up forking, and verifies the two sweeps agree point by point before
// reporting the speedup. A speedup above the Amdahl ceiling (see
// reuseCeiling) cannot come from skipping warm-ups, so it is refused as a
// measurement error rather than recorded.
func MeasureWarmupReuse(s workloads.Scale) (*WarmupReuse, error) {
	b, err := workloads.Get("rndcopy")
	if err != nil {
		return nil, err
	}
	base := sim.T()
	var cfgs []*sim.Config
	for _, p := range []int{64, 96, 128} {
		cc := *base
		cc.Vbox.PhysVRegs = p
		cfgs = append(cfgs, &cc)
	}

	wr := &WarmupReuse{Bench: b.Name, Config: base.Name, Scale: s.String(), Points: len(cfgs)}
	coldStats := make([]stats.Stats, len(cfgs))
	roiCycles := make([]uint64, len(cfgs))
	cold := func() (time.Duration, error) {
		var d time.Duration
		for i, cfg := range cfgs {
			res, err := b.Run(cfg, s)
			if err != nil {
				return 0, err
			}
			d += time.Duration(res.WallNs)
			coldStats[i] = *res.Stats
			roiCycles[i] = res.SimCycles - res.WarmupCycles
			wr.WarmupCycles = res.WarmupCycles
		}
		return d, nil
	}
	forked := func() (time.Duration, error) {
		var d time.Duration
		var blob []byte
		for i, cfg := range cfgs {
			var opts workloads.RunOpts
			if i == 0 {
				opts.OnWarmupSnapshot = func(_ uint64, bb []byte) { blob = bb }
			} else {
				opts.WarmupSnapshot = blob
			}
			res, err := b.RunOpt(cfg, s, opts)
			if err != nil {
				return 0, err
			}
			d += time.Duration(res.WallNs)
			if *res.Stats != coldStats[i] {
				return 0, fmt.Errorf("point %d (phys_vregs=%d): forked run's statistics differ from the cold run's (bit-identity violation)",
					i, cfg.Vbox.PhysVRegs)
			}
			if i > 0 && !res.WarmupRestored {
				return 0, fmt.Errorf("point %d did not restore the warm-up snapshot", i)
			}
		}
		return d, nil
	}
	// timePairs runs the cold sweep first, so coldStats is filled before
	// any forked sweep is checked against it.
	var ratios []float64
	wr.ColdWallS, wr.ReuseWallS, ratios, err = timePairs(cold, forked)
	if err != nil {
		return nil, err
	}
	wr.Speedup = median(ratios)
	wr.Ceiling = reuseCeiling(wr.WarmupCycles, roiCycles)
	// Wall time tracks cycles closely on this sweep, so a sound median sits
	// just under the ceiling and single pairs scatter across it. The figure
	// is refused when even the lower quartile of the pairs is above the
	// ceiling: most of the measurement then claims a saving the skipped
	// cycles cannot explain.
	if q1 := ratios[len(ratios)/4]; q1 > wr.Ceiling {
		return nil, fmt.Errorf("warm-up reuse measured %.2fx (lower quartile %.2fx), above the %.2fx ceiling that skipping %d warm-ups of %d cycles allows (ROI cycles %v): the timing is broken, refusing to record it",
			wr.Speedup, q1, wr.Ceiling, len(roiCycles)-1, wr.WarmupCycles, roiCycles)
	}
	return wr, nil
}

// reuseCeiling is the Amdahl bound on the warm-up reuse speedup when wall
// time is proportional to simulated cycles: the cold sweep simulates
// Σ(W+R_i), the forked sweep W+ΣR_i. With n equal ROIs this is
// n(W+R)/(W+nR), 3(W+R)/(W+3R) for the three-point sweep.
func reuseCeiling(w uint64, roi []uint64) float64 {
	var sumR uint64
	for _, r := range roi {
		sumR += r
	}
	return float64(uint64(len(roi))*w+sumR) / float64(w+sumR)
}

// timeKernel times one kernel on the legacy single-stepping loop and on the
// default engine (timePairs) and returns the simulated cycles, the two
// median wall clocks in seconds and the engine speedup. The wall clock is
// the chip loop's own (Result.WallNs), not the process wall: at test scale
// the kernels simulate only a few thousand cycles, so trace construction and
// functional verification would otherwise dominate and hide the engine
// entirely. The engine is selected through the package-wide sim.FastForward
// default (restored before returning). Both engines must report the same
// simulated cycles on every run — the bit-identity contract.
func timeKernel(b *workloads.Benchmark, cfg *sim.Config, s workloads.Scale) (cycles uint64, defWall, ssWall, speedup float64, err error) {
	saved := sim.FastForward
	defer func() { sim.FastForward = saved }()
	engine := func(fastForward bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			sim.FastForward = fastForward
			res, err := b.Run(cfg, s)
			if err != nil {
				return 0, fmt.Errorf("%s (fast-forward %v): %w", b.Name, fastForward, err)
			}
			if cycles == 0 {
				cycles = res.SimCycles
			} else if res.SimCycles != cycles {
				return 0, fmt.Errorf("%s: simulated time changed between runs (fast-forward %v): %d cycles, earlier %d (nondeterminism or engine bit-identity violation)",
					b.Name, fastForward, res.SimCycles, cycles)
			}
			return time.Duration(res.WallNs), nil
		}
	}
	ssWall, defWall, ratios, err := timePairs(engine(false), engine(true))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return cycles, defWall, ssWall, median(ratios), nil
}

// timingPairs is how many back-to-back run pairs timePairs takes. A shared
// host drifts in speed by tens of percent over seconds while a test-scale
// run lasts milliseconds, so the best runs of two variants timed apart are
// samples of different host speeds. A pair's ratio cancels the drift its
// two runs share; on a 2-vCPU VM single pair ratios still spread ±20%
// around their median, the median of 25 pairs a few percent.
const timingPairs = 25

// timePairs runs a and b back to back timingPairs times, alternating which
// goes first (a in the first pair) and forcing a collection before each run
// so garbage from one run is not collected on the other's clock. It returns
// the median wall seconds of a and of b and the per-pair ratios a/b, sorted.
func timePairs(a, b func() (time.Duration, error)) (aWall, bWall float64, ratios []float64, err error) {
	var aw, bw []float64
	for i := 0; i < timingPairs; i++ {
		var d [2]time.Duration
		for k := 0; k < 2; k++ {
			v := (i + k) % 2 // 0 = a, 1 = b
			runtime.GC()
			run := a
			if v == 1 {
				run = b
			}
			if d[v], err = run(); err != nil {
				return 0, 0, nil, err
			}
			d[v] = max(d[v], time.Nanosecond)
		}
		aw = append(aw, d[0].Seconds())
		bw = append(bw, d[1].Seconds())
		ratios = append(ratios, d[0].Seconds()/d[1].Seconds())
	}
	sort.Float64s(ratios)
	return median(aw), median(bw), ratios, nil
}

// median sorts x in place and returns its median.
func median(x []float64) float64 {
	sort.Float64s(x)
	if n := len(x); n%2 == 0 {
		return (x[n/2-1] + x[n/2]) / 2
	}
	return x[len(x)/2]
}

// timeSweep runs the full table/figure sweep sequentially and returns its
// wall clock. Sequential on purpose: the number tracks single-core simulator
// throughput, not the host's core count.
func timeSweep(s workloads.Scale) (float64, error) {
	r := tables.NewRunner(s)
	r.Parallel = 1
	r.Quiet = true
	t0 := time.Now()
	r.Prewarm()
	if _, err := r.Table2(); err != nil {
		return 0, err
	}
	if _, err := r.Table4(); err != nil {
		return 0, err
	}
	if _, err := r.Fig6(); err != nil {
		return 0, err
	}
	if _, err := r.Fig7(); err != nil {
		return 0, err
	}
	if _, err := r.Fig8(); err != nil {
		return 0, err
	}
	if _, err := r.Fig9(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// Load reads a BENCH_sim.json file. A missing file is an empty File, not an
// error, so the first run bootstraps the baseline.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Schema: Schema}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, this binary writes schema %d", path, f.Schema, Schema)
	}
	return &f, nil
}

// Append adds row to the file at path (creating it if needed) and writes it
// back, indented and newline-terminated.
func Append(path string, row *Row) error {
	f, err := Load(path)
	if err != nil {
		return err
	}
	f.Schema = Schema
	f.Rows = append(f.Rows, *row)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RegressionTolerance is the fraction of the committed speedup a fresh
// measurement may lose before CheckRegression fails (the CI gate's ">20%
// regression" threshold).
const RegressionTolerance = 0.20

// CheckRegression compares a fresh row against the last committed row,
// kernel by kernel, on the host-independent speedup ratio (default engine
// over single-step). It returns an error naming every kernel whose ratio
// regressed by more than RegressionTolerance. An empty committed file passes
// (bootstrap).
func CheckRegression(committed *File, fresh *Row) error {
	if len(committed.Rows) == 0 {
		return nil
	}
	base := committed.Rows[len(committed.Rows)-1]
	ref := map[string]float64{}
	for _, k := range base.Kernels {
		ref[k.Name] = k.Speedup
	}
	var bad []string
	for _, k := range fresh.Kernels {
		want, ok := ref[k.Name]
		if !ok || want <= 0 {
			continue
		}
		if k.Speedup < (1-RegressionTolerance)*want {
			bad = append(bad, fmt.Sprintf("%s: speedup %.2fx vs committed %.2fx (>%d%% regression)",
				k.Name, k.Speedup, want, int(RegressionTolerance*100)))
		}
	}
	if fresh.WarmupReuse != nil {
		wr := fresh.WarmupReuse
		if wr.Speedup < 1 {
			bad = append(bad, fmt.Sprintf("warmup reuse: sweep with snapshot forking is slower than cold (%.2fx)", wr.Speedup))
		}
		if cw := base.WarmupReuse; cw != nil && cw.Speedup > 0 &&
			wr.Speedup < (1-RegressionTolerance)*cw.Speedup {
			bad = append(bad, fmt.Sprintf("warmup reuse: speedup %.2fx vs committed %.2fx (>%d%% regression)",
				wr.Speedup, cw.Speedup, int(RegressionTolerance*100)))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cycles/sec regression vs committed baseline (%s):\n  %s",
			base.Label, joinLines(bad))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
