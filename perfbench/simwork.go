package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tables"
	"repro/internal/vasm"
	"repro/internal/workloads"
)

// cell is one (benchmark, machine) simulation.
type cell struct {
	bench string
	b     *workloads.Benchmark
	cfg   *sim.Config
}

func (c cell) id() string { return c.bench + "@" + c.cfg.Name }

func newCell(bench string, cfg *sim.Config) (cell, error) {
	b, err := workloads.Get(bench)
	if err != nil {
		return cell{}, err
	}
	return cell{bench, b, cfg}, nil
}

// table4Benches are the paper's Table 4 bandwidth kernels, run on T.
var table4Benches = []string{
	"streams_copy", "streams_scale", "streams_add", "streams_triadd", "rndcopy", "rndmemscale",
}

// fig7Benches are the Figure 7 subset, run on EV8 and T.
var fig7Benches = []string{"dgemm", "sparsemxv", "moldyn", "ccradix"}

func table4Cells() ([]cell, error) {
	var cells []cell
	for _, n := range table4Benches {
		c, err := newCell(n, sim.T())
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

func fig7Cells() ([]cell, error) {
	var cells []cell
	for _, n := range fig7Benches {
		for _, cfg := range []*sim.Config{sim.EV8(), sim.T()} {
			c, err := newCell(n, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// refCell is one recorded bench-scale cell: the correctness reference.
type refCell struct {
	Bench     string      `json:"bench"`
	Config    string      `json:"config"`
	SimCycles uint64      `json:"sim_cycles"`
	Stats     stats.Stats `json:"stats"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference parses the recorded bench-scale cells, keyed by cell id.
func loadReference() (map[string]refCell, error) {
	var doc struct {
		Scale string    `json:"scale"`
		Cells []refCell `json:"cells"`
	}
	if err := json.Unmarshal(referenceJSON, &doc); err != nil {
		return nil, fmt.Errorf("parsing reference cells: %w", err)
	}
	if doc.Scale != "bench" {
		return nil, fmt.Errorf("reference cells recorded at scale %q, want bench", doc.Scale)
	}
	out := make(map[string]refCell, len(doc.Cells))
	for _, c := range doc.Cells {
		out[c.Bench+"@"+c.Config] = c
	}
	return out, nil
}

// recordReference runs every bench-scale cell once and writes the
// reference file that later runs are checked against.
func recordReference(path string) error {
	t4, err := table4Cells()
	if err != nil {
		return err
	}
	f7, err := fig7Cells()
	if err != nil {
		return err
	}
	var cells []refCell
	for _, c := range append(t4, f7...) {
		res, err := c.b.RunOpt(c.cfg, workloads.Bench, workloads.RunOpts{})
		if err != nil {
			return err
		}
		cells = append(cells, refCell{c.bench, c.cfg.Name, res.SimCycles, *res.Stats})
		fmt.Fprintf(os.Stderr, "recorded %s: %d cycles\n", c.id(), res.SimCycles)
	}
	raw, err := json.MarshalIndent(map[string]any{"scale": "bench", "cells": cells}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// passStats is one timed pass over a workload's cells.
type passStats struct {
	wall, cpu time.Duration // summed over the pass's timed chunks
	speed     float64       // host speed during the pass (hostClock.speed)
	liveHeap  uint64        // live heap after the pass, in bytes (measure)
	cycles    uint64        // simulated cycles
	jobs      int           // cells simulated or requests answered
}

// ref returns d in reference seconds at the pass's host speed.
func (p passStats) ref(d time.Duration) float64 { return d.Seconds() * p.speed }

// minPlain is the fewest untraced rounds a run takes its medians over.
const minPlain = 3

// repeat calls round until the rounds' measured time reaches o.seconds and
// at least minPlain untraced rounds have run. In a traced run it alternates
// untraced and traced rounds until it also has one traced round; their
// difference is the tracing overhead.
func repeat(o *options, tr *tracer, round func(traced bool) (time.Duration, error)) error {
	var elapsed time.Duration
	plain, traced := 0, 0
	for i := 0; elapsed.Seconds() < o.seconds || plain < minPlain || (tr != nil && traced == 0); i++ {
		withTrace := tr != nil && i%2 == 1
		d, err := round(withTrace)
		if err != nil {
			return err
		}
		elapsed += d
		if withTrace {
			traced++
		} else {
			plain++
		}
	}
	return nil
}

// measure runs fn after a GC, so every timed phase starts from the same
// heap state, and returns the live heap after it: the bytes still reachable
// once fn has returned, with its results held, found by a second GC outside
// the timing. A traced phase runs under the CPU profiler.
func measure(tr *tracer, traced bool, fn func() error) (liveHeap uint64, err error) {
	runtime.GC()
	if traced {
		err = tr.profile(fn)
	} else {
		err = fn()
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), err
}

// timedPasses repeats pass (see repeat). An untraced pass gets a hostClock
// that times its chunks and probes the host after each; a traced pass gets
// the tracer, a pass span and a nil hostClock, which times without probing.
func timedPasses(o *options, tr *tracer, pass func(t *tracer, parent int, hc *hostClock) (passStats, error)) (plain, traced []passStats, err error) {
	hc := &hostClock{}
	err = repeat(o, tr, func(withTrace bool) (time.Duration, error) {
		var t *tracer
		h := hc
		if withTrace {
			t, h = tr, nil
		}
		var ps passStats
		live, err := measure(tr, withTrace, func() error {
			h.probe(0) // the host's speed as the pass starts
			sp := t.start("pass", 0, "")
			defer sp.end()
			var err error
			ps, err = pass(t, sp.id(), h)
			return err
		})
		ps.speed, ps.liveHeap = h.speed(), live
		if withTrace {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
		return ps.wall, err
	})
	return plain, traced, err
}

// passMetrics sets the end-to-end metrics of untraced passes, in reference
// seconds (see calib.go), and for a traced run the tracing overhead in wall
// seconds. The raw wall-clock figures go to # lines.
func passMetrics(out *outcome, plain, traced []passStats) {
	var wall, cpu, mcps, rawWall, rawMcps, jobs, speed, mem []float64
	for _, p := range plain {
		mem = append(mem, float64(p.liveHeap)/(1<<20))
		w := p.ref(p.wall)
		wall = append(wall, w)
		cpu = append(cpu, p.ref(p.cpu))
		mcps = append(mcps, float64(p.cycles)/w/1e6)
		rawWall = append(rawWall, p.wall.Seconds())
		rawMcps = append(rawMcps, float64(p.cycles)/p.wall.Seconds()/1e6)
		jobs = append(jobs, float64(p.jobs)/p.wall.Seconds())
		speed = append(speed, p.speed)
	}
	out.e2e["ref_wall_s"] = median(wall)
	out.e2e["ref_cpu_s"] = median(cpu)
	out.e2e["ref_mcps"] = median(mcps)
	out.e2e["live_heap_mb"] = median(mem)
	fmt.Printf("# %d untraced passes: ref_wall_s %.4g, median %.4f; ref_mcps median %.4f\n", len(plain), wall, median(wall), median(mcps))
	fmt.Printf("# live heap after each pass (MiB): %.5g\n", mem)
	fmt.Printf("# host speed (reference units): %.4g, median %.4f\n", speed, median(speed))
	fmt.Printf("# raw wall clock: wall_s median %.4f, mcps median %.4f, jobs/s median %.4f\n", median(rawWall), median(rawMcps), median(jobs))
	if len(traced) > 0 {
		var tw []float64
		for _, p := range traced {
			tw = append(tw, p.wall.Seconds())
		}
		out.layer["trace.overhead_s"] = median(tw) - median(rawWall)
		out.layer["host.wall_s"] = median(rawWall)
		out.layer["host.speed"] = median(speed)
		fmt.Printf("# tracing overhead: traced pass %.4fs - untraced pass %.4fs = %.4fs\n",
			median(tw), median(rawWall), median(tw)-median(rawWall))
	}
}

// medianSetup runs setup n times and records the median, in reference
// seconds, as setup_s. The host is probed after each repetition and its
// speed taken over the whole set-up phase.
func medianSetup(out *outcome, n int, setup func() error) error {
	hc := &hostClock{}
	var walls []time.Duration
	for i := 0; i < n; i++ {
		var ps passStats
		if err := hc.run(&ps, setup); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, ps.wall)
	}
	speed := hc.speed()
	var ds []float64
	for _, w := range walls {
		ds = append(ds, w.Seconds()*speed)
	}
	out.e2e["setup_s"] = median(ds)
	fmt.Printf("# set-up repetitions (reference s): %.4g\n", ds)
	return nil
}

// shuffled returns cells in the seed's order.
func shuffled(cells []cell, seed int64) []cell {
	out := append([]cell(nil), cells...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// benchRun is a bench-scale workload: its pass runs the cells one at a
// time through RunOpt, checks each against the recorded reference and keeps
// the last pass's results by cell id.
type benchRun struct {
	cells   []cell
	ref     map[string]refCell
	out     *outcome
	results map[string]*workloads.Result
}

func (r *benchRun) pass(t *tracer, parent int, hc *hostClock) (passStats, error) {
	var ps passStats
	for _, c := range r.cells {
		var res *workloads.Result
		err := hc.run(&ps, func() error {
			sp := t.start("workloads.RunOpt", parent, c.id())
			defer sp.end()
			var err error
			res, err = c.b.RunOpt(c.cfg, workloads.Bench, workloads.RunOpts{})
			return err
		})
		r.out.attempted++
		ps.jobs++
		if err != nil {
			r.out.fail("%s: %v", c.id(), err)
			continue
		}
		ps.cycles += res.SimCycles
		want, ok := r.ref[c.id()]
		switch {
		case !ok:
			r.out.fail("%s: no recorded reference", c.id())
		case res.SimCycles != want.SimCycles || *res.Stats != want.Stats:
			r.out.fail("%s: simulated %d cycles, reference %d (or counters differ):\n  got  %+v\n  want %+v",
				c.id(), res.SimCycles, want.SimCycles, *res.Stats, want.Stats)
		}
		r.results[c.id()] = res
	}
	return ps, nil
}

// runBench is the shared driver of the two bench-scale workloads: set-up,
// timed passes, and in a traced run the per-layer decomposition.
func runBench(o *options, tr *tracer, cells []cell, setupReps int, setup func() error) (*benchRun, error) {
	out := newOutcome()
	if err := medianSetup(out, setupReps, setup); err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	r := &benchRun{cells: shuffled(cells, o.seed), ref: ref, out: out, results: map[string]*workloads.Result{}}
	plain, traced, err := timedPasses(o, tr, r.pass)
	if err != nil {
		return nil, err
	}
	passMetrics(out, plain, traced)
	if tr != nil {
		if err := decompose(out, tr, r.cells, workloads.Bench); err != nil {
			return nil, err
		}
		var st []*stats.Stats
		for _, c := range r.cells {
			if res := r.results[c.id()]; res != nil {
				st = append(st, res.Stats)
			}
		}
		modelCounts(out, st)
		for k, v := range tr.shares() {
			out.layer[k] = v
		}
	}
	return r, nil
}

// runTable4 is the table4-bench workload: the six Table 4 kernels on T at
// bench scale, one at a time.
func runTable4(o *options, tr *tracer) (*outcome, error) {
	cells, err := table4Cells()
	if err != nil {
		return nil, err
	}
	var paper map[string]float64
	setup := func() error {
		// A test-scale Table 4 warms the simulator's code paths and heap
		// and supplies the paper's STREAMS column.
		r := tables.NewRunner(workloads.Test)
		r.Quiet, r.Parallel = true, 1
		rows, err := r.Table4()
		if err != nil {
			return err
		}
		paper = map[string]float64{}
		for _, row := range rows {
			if row.Err != "" {
				return fmt.Errorf("test-scale Table 4 %s: %s", row.Name, row.Err)
			}
			paper[row.Name] = row.PaperStreams
		}
		return nil
	}
	r, err := runBench(o, tr, cells, 9, setup)
	if err != nil {
		return nil, err
	}
	table4Error(r, cells, paper)
	return r.out, nil
}

// runFig7 is the fig7-bench workload: a Figure 7 subset on EV8 and T at
// bench scale, one at a time.
func runFig7(o *options, tr *tracer) (*outcome, error) {
	cells, err := fig7Cells()
	if err != nil {
		return nil, err
	}
	setup := func() error {
		// Each cell once at test scale warms the code paths and heap.
		for _, c := range cells {
			if _, err := c.b.RunOpt(c.cfg, workloads.Test, workloads.RunOpts{}); err != nil {
				return err
			}
		}
		return nil
	}
	r, err := runBench(o, tr, cells, 5, setup)
	if err != nil {
		return nil, err
	}
	fig7Speedup(r)
	return r.out, nil
}

// table4Error sets model.table4_err_pct: the mean |model − paper| ÷ paper
// bandwidth over the Table 4 kernels' STREAMS column.
func table4Error(r *benchRun, cells []cell, paper map[string]float64) {
	var errs []float64
	for _, c := range cells {
		res := r.results[c.id()]
		if res == nil || paper[c.bench] == 0 {
			continue
		}
		st := *res.Stats
		st.UsefulBytes = c.b.UsefulBytes(workloads.Bench)
		mbs := st.BandwidthMBs(c.cfg.CPUGHz)
		errs = append(errs, math.Abs(mbs-paper[c.bench])/paper[c.bench])
		fmt.Printf("# table4 %-15s model %8.0f MB/s  paper %8.0f MB/s\n", c.bench, mbs, paper[c.bench])
	}
	if len(errs) != len(cells) {
		r.out.fail("table4_err_pct: %d of %d kernels produced a bandwidth", len(errs), len(cells))
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	errPct := 100 * sum / float64(len(cells))
	fmt.Printf("# table4_err_pct %.6f (mean |model-paper|/paper over the STREAMS column; exact)\n", errPct)
	r.out.layer["model.table4_err_pct"] = errPct
}

// fig7Speedup sets model.fig7_geomean: the geometric mean of the T-over-EV8
// cycle speedup over the Figure 7 subset.
func fig7Speedup(r *benchRun) {
	var speedups []float64
	for _, n := range fig7Benches {
		ev8, t := r.results[n+"@EV8"], r.results[n+"@T"]
		if ev8 == nil || t == nil {
			continue
		}
		s := float64(ev8.Stats.Cycles) / float64(t.Stats.Cycles)
		speedups = append(speedups, s)
		fmt.Printf("# fig7 %-10s T over EV8 %.4fx\n", n, s)
	}
	if len(speedups) != len(fig7Benches) {
		r.out.fail("fig7_geomean: %d of %d kernels produced a speedup", len(speedups), len(fig7Benches))
	}
	g := stats.GMean(speedups)
	fmt.Printf("# fig7_geomean %.6f (T over EV8 cycle speedup; exact, unvalidated: no Figure 7 reference in the repo)\n", g)
	r.out.layer["model.fig7_geomean"] = g
}

// goldenSweepPath is the committed test-scale sweep capture, read-only.
const goldenSweepPath = "internal/tables/testdata/golden_cells_test_scale.json"

type goldenCell struct {
	Bench  string       `json:"bench"`
	Config string       `json:"config"`
	Stats  *stats.Stats `json:"stats"`
}

func loadGolden() ([]goldenCell, error) {
	raw, err := os.ReadFile(goldenSweepPath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Scale string       `json:"scale"`
		Cells []goldenCell `json:"cells"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenSweepPath, err)
	}
	if doc.Scale != "test" || len(doc.Cells) == 0 {
		return nil, fmt.Errorf("%s: want a non-empty test-scale capture", goldenSweepPath)
	}
	return doc.Cells, nil
}

// configByName resolves a sweep cell's machine name, including the
// Figure 9 ablation machine.
func configByName(name string) (*sim.Config, error) {
	if name == "T-nopump" {
		return sim.NoPump(sim.T()), nil
	}
	if cfg := sim.ByName(name); cfg != nil {
		return cfg, nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

// runSweep is the sweep-test workload: the whole tartables -all cell set
// at test scale through tables.Runner, checked cell by cell against the
// committed golden capture.
func runSweep(o *options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var golden []goldenCell
	setup := func() error {
		var err error
		if golden, err = loadGolden(); err != nil {
			return err
		}
		r := tables.NewRunner(workloads.Test)
		r.Quiet, r.Parallel = true, 1
		_, err = r.Table4()
		return err
	}
	if err := medianSetup(out, 9, setup); err != nil {
		return nil, err
	}
	want := make(map[[2]string]*stats.Stats, len(golden))
	for _, g := range golden {
		want[[2]string{g.Bench, g.Config}] = g.Stats
	}
	type section struct {
		name string
		run  func(r *tables.Runner) error
	}
	sections := []section{
		{"tables.Table2", func(r *tables.Runner) error { _, err := r.Table2(); return err }},
		{"tables.Table4", func(r *tables.Runner) error { _, err := r.Table4(); return err }},
		{"tables.Fig6", func(r *tables.Runner) error { _, err := r.Fig6(); return err }},
		{"tables.Fig7", func(r *tables.Runner) error { _, err := r.Fig7(); return err }},
		{"tables.Fig8", func(r *tables.Runner) error { _, err := r.Fig8(); return err }},
		{"tables.Fig9", func(r *tables.Runner) error { _, err := r.Fig9(); return err }},
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(sections), func(i, j int) { sections[i], sections[j] = sections[j], sections[i] })
	var last []tables.CellResult
	pass := func(t *tracer, parent int, hc *hostClock) (passStats, error) {
		var ps passStats
		var r *tables.Runner
		hc.run(&ps, func() error {
			r = tables.NewRunner(workloads.Test)
			r.Quiet, r.Parallel = true, sweepParallel
			r.Prewarm()
			return nil
		})
		for _, s := range sections {
			err := hc.run(&ps, func() error {
				sp := t.start(s.name, parent, "")
				defer sp.end()
				return s.run(r)
			})
			if err != nil {
				return passStats{}, err
			}
		}
		cells := r.Cells()
		seen := map[[2]string]bool{}
		for _, c := range cells {
			id := [2]string{c.Bench, c.Config}
			seen[id] = true
			out.attempted++
			ps.jobs++
			w, ok := want[id]
			switch {
			case c.Err != "":
				out.fail("%s on %s: %s", c.Bench, c.Config, c.Err)
				continue
			case !ok:
				out.fail("%s on %s: not in the golden capture", c.Bench, c.Config)
			case *c.Res.Stats != *w:
				out.fail("%s on %s: counters differ from the golden capture", c.Bench, c.Config)
			}
			ps.cycles += c.Res.SimCycles
		}
		for id := range want {
			if !seen[id] {
				out.attempted++
				out.fail("%s on %s: in the golden capture but not swept", id[0], id[1])
			}
		}
		last = cells
		return ps, nil
	}
	plain, traced, err := timedPasses(o, tr, pass)
	if err != nil {
		return nil, err
	}
	passMetrics(out, plain, traced)
	if tr != nil {
		var cells []cell
		var st []*stats.Stats
		for _, c := range last {
			cfg, err := configByName(c.Config)
			if err != nil {
				return nil, err
			}
			cl, err := newCell(c.Bench, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cl)
			if c.Res != nil {
				st = append(st, c.Res.Stats)
			}
		}
		out.layer["tables.cells"] = float64(len(last))
		out.layer["tables.cell_ms"] = out.layer["host.wall_s"] * float64(sweepParallel) / float64(len(last)) * 1e3
		if err := decompose(out, tr, cells, workloads.Test); err != nil {
			return nil, err
		}
		modelCounts(out, st)
		for k, v := range tr.shares() {
			out.layer[k] = v
		}
	}
	return out, nil
}

// decompose runs each cell once more, sequentially, splitting its host
// time into the trace producer alone (the kernel drained through
// vasm.NewTrace with no timing model), sim.Execute (cycle loop plus the
// set-up around it) and the functional Check. Spans cover each call.
func decompose(out *outcome, tr *tracer, cells []cell, scale workloads.Scale) error {
	var produce, loop, overhead, check time.Duration
	var insts uint64
	for _, c := range cells {
		root := tr.start("cell", 0, c.id())
		sp := tr.start("vasm.produce", root.id(), c.id())
		t0 := time.Now()
		n, err := drainProducer(c, scale)
		produce += time.Since(t0)
		sp.end()
		if err != nil {
			root.end()
			return fmt.Errorf("%s: producer: %w", c.id(), err)
		}
		insts += n

		kernelFn := c.b.Scalar
		if c.cfg.HasVbox {
			kernelFn = c.b.Vector
		}
		spec := sim.RunSpec{Config: c.cfg, Kernel: kernelFn(scale)}
		if c.b.Setup != nil {
			spec.Setup = c.b.Setup(scale, c.cfg.HasVbox)
		}
		sp = tr.start("sim.Execute", root.id(), c.id())
		t0 = time.Now()
		res, err := sim.Execute(spec)
		wall := time.Since(t0)
		sp.end()
		if err != nil {
			root.end()
			return fmt.Errorf("%s: %w", c.id(), err)
		}
		loop += res.SimWall
		overhead += wall - res.SimWall

		if c.b.Check != nil {
			sp = tr.start("workloads.Check", root.id(), c.id())
			t0 = time.Now()
			err = c.b.Check(res.Machine, scale)
			check += time.Since(t0)
			sp.end()
			if err != nil {
				root.end()
				return fmt.Errorf("%s: check: %w", c.id(), err)
			}
		}
		root.end()
	}
	n := float64(len(cells))
	out.layer["vasm.produce_s"] = produce.Seconds()
	out.layer["vasm.insts"] = float64(insts)
	if insts > 0 {
		out.layer["vasm.ns_per_inst"] = float64(produce.Nanoseconds()) / float64(insts)
	}
	out.layer["sim.loop_s"] = loop.Seconds()
	out.layer["sim.overhead_ms"] = overhead.Seconds() * 1e3 / n
	out.layer["workloads.check_ms"] = check.Seconds() * 1e3 / n
	return nil
}

// drainProducer executes a cell's kernels functionally — warm-up then
// region of interest, on one fresh machine as sim.Execute does — and
// returns the number of dynamic instructions produced.
func drainProducer(c cell, scale workloads.Scale) (uint64, error) {
	m := arch.New(mem.New())
	var n uint64
	drain := func(k vasm.Kernel) error {
		t := vasm.NewTrace(m, k)
		defer t.Close()
		for t.Next() != nil {
		}
		n += t.Consumed()
		return t.Err()
	}
	if c.b.Setup != nil {
		setup := c.b.Setup(scale, c.cfg.HasVbox)
		if err := drain(func(b *vasm.Builder) { setup(b); b.Halt() }); err != nil {
			return n, err
		}
	}
	kernelFn := c.b.Scalar
	if c.cfg.HasVbox {
		kernelFn = c.b.Vector
	}
	return n, drain(kernelFn(scale))
}

// modelCounts sums the model's own work counters over one pass's cells.
// They are exact: a change that only speeds the simulator up leaves them
// equal.
func modelCounts(out *outcome, sts []*stats.Stats) {
	var s stats.Stats
	for _, st := range sts {
		s.Cycles += st.Cycles
		s.L2Hits += st.L2Hits
		s.L2Misses += st.L2Misses
		s.L2VecSlices += st.L2VecSlices
		s.L2SliceReplays += st.L2SliceReplays
		s.MAFFullStalls += st.MAFFullStalls
		s.MemReads += st.MemReads
		s.MemWrites += st.MemWrites
		s.MemDirOps += st.MemDirOps
		s.RowHits += st.RowHits
		s.RowActivates += st.RowActivates
		s.ScalarIns += st.ScalarIns
		s.BranchMispredicts += st.BranchMispredicts
		s.VectorIns += st.VectorIns
		s.VecOps += st.VecOps
		s.CRSlices += st.CRSlices
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for k, v := range map[string]float64{
		"sim.cycles":              float64(s.Cycles),
		"l2.hits":                 float64(s.L2Hits),
		"l2.misses":               float64(s.L2Misses),
		"l2.vec_slices":           float64(s.L2VecSlices),
		"l2.replay_ratio":         ratio(s.L2SliceReplays, s.L2VecSlices),
		"l2.maf_full_stalls":      float64(s.MAFFullStalls),
		"zbox.reads":              float64(s.MemReads),
		"zbox.writes":             float64(s.MemWrites),
		"zbox.dir_ops":            float64(s.MemDirOps),
		"zbox.row_hit_ratio":      ratio(s.RowHits, s.RowHits+s.RowActivates),
		"core.scalar_insts":       float64(s.ScalarIns),
		"core.branch_mispredicts": float64(s.BranchMispredicts),
		"vbox.vector_insts":       float64(s.VectorIns),
		"vbox.vec_ops":            float64(s.VecOps),
		"creorder.cr_slices":      float64(s.CRSlices),
	} {
		out.layer[k] = v
	}
}
