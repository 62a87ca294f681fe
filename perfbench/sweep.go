package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/minic"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// paperScale is paper-sweep's uniform workload scale, the ddsim -scale it
// reproduces: a sweep of about two seconds on one worker, so a 28 s window
// holds about ten repetitions.
const paperScale = 30

// paperWorkers is paper-sweep's Runner worker count. One worker, not two:
// in interleaved runs on a shared two-vCPU host, the two-worker sweep's
// repetition times spread half again as widely as the one-worker sweep's
// (see README.md, Bounds and noise). The reports are the same bytes.
const paperWorkers = 1

// setupRepeats is how many times every workload sets up; setup_s is the
// median.
const setupRepeats = 5

// sweepTailPct is the sweeps' job_p99_ms percentile: a run's four or more
// repetitions of 150 cells leave at least twelve cells beyond p98.
const sweepTailPct = 98

// buildStats is what one set-up pass spent in the build layers.
type buildStats struct {
	Compile, Assemble float64 // seconds in minic.Compile / asm.Assemble
	VMBusy            float64 // seconds generating traces
	Records           int64   // trace records generated
}

// report writes the set-up's minic.*, asm.* and vm.* per-layer metrics;
// gen names what generated the traces.
func (bs buildStats) report(res *result, gen string) {
	res.layer("minic.compile_s", bs.Compile)
	res.layer("asm.assemble_s", bs.Assemble)
	res.layer("vm.records", float64(bs.Records))
	res.layer("vm.busy_s", bs.VMBusy)
	r := ratio{float64(bs.Records) / 1e6, bs.VMBusy, "MRec / s generating in " + gen}
	res.layer("vm.mrec_per_s", r.Value())
	res.note("vm.mrec_per_s", r.String())
}

// buildPrograms compiles and assembles every workload's MiniC source at
// the scale scaleOf gives it, timing the two layers directly.
func buildPrograms(tr *Recorder, parent int, scaleOf func(*workloads.Workload) int, bs *buildStats) error {
	for _, w := range workloads.All() {
		src := w.Source(scaleOf(w))
		t0 := time.Now()
		text, err := minic.Compile(src)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("compiling %s: %w", w.Name, err)
		}
		prog, err := asm.Assemble(text)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("assembling %s: %w", w.Name, err)
		}
		if err := prog.Validate(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		tr.Record(parent, "minic", "minic.Compile", w.Name, t0, t1, 1)
		tr.Record(parent, "asm", "asm.Assemble", w.Name, t1, t2, 1)
		bs.Compile += t1.Sub(t0).Seconds()
		bs.Assemble += t2.Sub(t1).Seconds()
	}
	return nil
}

// generateTraces drops the process-wide trace cache and regenerates every
// workload's in-memory trace at scale through workloads.Provider.
func generateTraces(tr *Recorder, parent int, scale int, bs *buildStats) error {
	workloads.FlushCache()
	for _, w := range workloads.All() {
		t0 := time.Now()
		prov, err := w.Provider(context.Background(), scale, workloads.ProviderOptions{})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("generating %s: %w", w.Name, err)
		}
		n, err := trace.ProviderRecords(prov)
		if err != nil || n == 0 {
			return fmt.Errorf("%s trace: %d records, %v", w.Name, n, err)
		}
		tr.Record(parent, "vm", "workloads.Provider", w.Name, t0, t1, 1)
		bs.VMBusy += t1.Sub(t0).Seconds()
		bs.Records += n
	}
	return nil
}

// sweepSetup is paper-sweep's and cluster-sweep's set-up: build the six
// programs and generate their traces in memory, setupRepeats times. Only
// the last pass is traced.
func sweepSetup(cfg *runConfig, scale int, res *result) error {
	var last buildStats
	uniform := func(*workloads.Workload) int { return scale }
	d, err := medianSetup(setupRepeats, func(final bool) error {
		var tr *Recorder
		if final {
			tr = cfg.tr
		}
		root := tr.Begin(0, rootLayer, "setup", "")
		defer tr.End(root)
		last = buildStats{}
		if err := buildPrograms(tr, root, uniform, &last); err != nil {
			return err
		}
		return generateTraces(tr, root, scale, &last)
	})
	if err != nil {
		return err
	}
	res.E2E["setup_s"] = d
	last.report(res, "workloads.Provider")
	return nil
}

// renderAll runs every registry experiment through r and renders them as
// ddsim -experiment all prints them. cur holds the span of the entry being
// rendered, so executor spans can hang under it.
func renderAll(r *experiments.Runner, tr *Recorder, parent int, cur *atomic.Int64) (string, error) {
	var b strings.Builder
	for _, e := range experiments.Registry() {
		id := tr.Begin(parent, "experiments", "registry."+e.ID, e.ID)
		cur.Store(int64(id))
		rep, err := e.Run(r)
		tr.End(id)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		if rep.Degraded() {
			return "", fmt.Errorf("%s degraded: %v", e.ID, rep.Errs)
		}
		fmt.Fprintf(&b, "== %s: %s ==\n%s\n", rep.ID, rep.Title, rep.Text)
	}
	return b.String(), nil
}

// refName is the reference report file for a uniform-scale sweep.
func refName(scale int) string { return fmt.Sprintf("sweep-scale%d.txt", scale) }

// checkReport fails unless got byte-equals the reference file.
func checkReport(got, refPath string) error {
	want, err := os.ReadFile(refPath)
	if err != nil {
		return fmt.Errorf("reading reference: %w", err)
	}
	if got == string(want) {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("report differs from %s at line %d: got %q, want %q", refPath, i+1, gl, wl)
		}
	}
	return fmt.Errorf("report differs from %s", refPath)
}

// cellTiming is one cell the benchmark timed at the core boundary.
type cellTiming struct {
	Config        string
	Width         int
	Instr, Cycles int64
	Seconds       float64
}

// coreStats accumulates core-layer cell timings.
type coreStats struct {
	mu    sync.Mutex
	cells []cellTiming
}

func (c *coreStats) add(t cellTiming) {
	c.mu.Lock()
	c.cells = append(c.cells, t)
	c.mu.Unlock()
}

// report writes the core.* per-layer metrics. busy, when positive,
// replaces the summed cell times: cluster-sweep simulates inside its
// workers, whose registries know the total but not each cell's share.
func (c *coreStats) report(res *result, busy float64) {
	var instr, cycles int64
	var cellBusy float64
	by := map[string][2]float64{} // selector -> (seconds, instructions)
	for _, t := range c.cells {
		instr += t.Instr
		cycles += t.Cycles
		cellBusy += t.Seconds
		for _, k := range []string{fmt.Sprintf("w%d", t.Width), t.Config} {
			v := by[k]
			by[k] = [2]float64{v[0] + t.Seconds, v[1] + float64(t.Instr)}
		}
	}
	perCell := busy <= 0
	if perCell {
		busy = cellBusy
	}
	res.layer("core.cells", float64(len(c.cells)))
	res.layer("core.instructions", float64(instr))
	res.layer("core.sim_cycles", float64(cycles))
	res.layer("core.busy_s", busy)
	rate := ratio{float64(instr) / 1e6, busy, "MInstr / s simulating"}
	res.layer("core.minstr_per_busy_s", rate.Value())
	res.note("core.minstr_per_busy_s", rate.String())
	for _, k := range []string{"w4", "w2048", "A", "D"} {
		q := ratio{by[k][0] * 1e9, by[k][1], "ns / instructions of " + k + " cells"}
		if !perCell {
			q.Num = 0
		}
		res.layer("core.ns_per_instr."+k, q.Value())
		if perCell {
			res.note("core.ns_per_instr."+k, q.String())
		}
	}
}

// timedExecutor is the traced run's experiments.Executor: it opens the
// workload's trace provider and calls core.RunChecked, exactly as the
// Runner's local path does, with a core span around the call.
type timedExecutor struct {
	tr     *Recorder
	parent *atomic.Int64
	stats  *coreStats
}

func (e *timedExecutor) ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error) {
	prov, err := w.Provider(ctx, scale, workloads.ProviderOptions{})
	if err != nil {
		return nil, err
	}
	src, err := prov.Open()
	if err != nil {
		return nil, err
	}
	defer trace.CloseSource(src)
	t0 := time.Now()
	res, err := core.RunChecked(ctx, src, cfg, core.Params{Width: width, SelfCheck: selfCheck})
	t1 := time.Now()
	e.tr.Record(int(e.parent.Load()), "core", "core.RunChecked",
		fmt.Sprintf("%s/%s/w%d", w.Name, cfg.Name, width), t0, t1, 1)
	if err == nil {
		e.stats.add(cellTiming{cfg.Name, width, res.Instructions, res.Cycles, t1.Sub(t0).Seconds()})
	}
	return res, err
}

// runnerCounts reads a RunnerMetrics registry's cell resolutions: memory
// cache hits, store hits, computed, failed.
func runnerCounts(reg *metrics.Registry, mode string) [4]int64 {
	v := reg.CounterVec("runner_cells_total", "", "mode", "outcome")
	return [4]int64{v.With(mode, "cache_hit").Value(), v.With(mode, "store_hit").Value(),
		v.With(mode, "computed").Value(), v.With(mode, "failed").Value()}
}

// experimentsLayer writes the experiments.* counts from runnerCounts.
func experimentsLayer(res *result, c [4]int64) {
	cells := c[0] + c[1] + c[2] + c[3]
	res.layer("experiments.cells", float64(cells))
	res.layer("experiments.computed", float64(c[2]))
	hr := ratio{float64(c[0]), float64(cells), "memory-cache hits / cell resolutions"}
	res.layer("experiments.cache_hit_ratio", hr.Value())
	res.note("experiments.cache_hit_ratio", hr.String())
}

// measureRender times re-rendering every experiment on a Runner whose
// cells are all cached: the experiments layer's own rendering cost. The
// re-render must equal the first.
func measureRender(r *experiments.Runner, first string, res *result) error {
	var cur atomic.Int64
	t0 := time.Now()
	again, err := renderAll(r, nil, 0, &cur)
	res.layer("experiments.render_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	if again != first {
		return fmt.Errorf("re-rendering from the warm cache changed the report")
	}
	return nil
}

// cellLatencies turns a perf collector's computed cells into operation
// latencies (ms) and simulated instructions.
func cellLatencies(c *perf.Collector) (ms []float64, instr int64) {
	for _, cell := range c.Cells() {
		ms = append(ms, cell.Seconds*1e3)
		instr += cell.Instructions
	}
	return ms, instr
}

// opMetrics sets job_p50_ms and job_p99_ms from pooled operation
// latencies. The tail is read at a percentile fixed per workload, so it
// does not jump when a run fits one more repetition; if a slow host
// leaves fewer than minBeyond samples beyond it, the highest percentile
// that has them is used instead.
func opMetrics(res *result, kind string, lat []float64, pct float64) {
	res.E2E["job_p50_ms"] = median(lat)
	if beyond(len(lat), pct) < minBeyond {
		pct, _ = tailPct(lat, pct)
	}
	res.E2E["job_p99_ms"] = quantile(lat, pct/100)
	res.note("job_p99_ms", fmt.Sprintf("p%g of %d %s latencies (%d beyond)", pct, len(lat), kind, beyond(len(lat), pct)))
}

// paperSweep: every registry experiment through one Runner, as
// ddsim -experiment all -scale 30 renders them, with one worker and no
// store. See README.md.
func paperSweep(cfg *runConfig) (*result, error) {
	res := newResult()
	if err := sweepSetup(cfg, paperScale, res); err != nil {
		return nil, err
	}
	ref := filepath.Join(cfg.Refs, refName(paperScale))
	mark := cfg.tr.Mark()
	var lat []float64
	var traced *tracedSweep
	reps, err := repeat(cfg.Seconds, cfg.Traced, func(rep int, on bool) (repStats, error) {
		col := &perf.Collector{}
		r := experiments.NewRunner(paperScale).WithWorkers(paperWorkers).WithPerf(col)
		var tr *Recorder
		var cur atomic.Int64
		var ts *tracedSweep
		if on {
			tr = cfg.tr
			tr.Truncate(mark)
			ts = &tracedSweep{reg: metrics.NewRegistry(), core: &coreStats{}}
			r.WithMetrics(experiments.NewRunnerMetrics(ts.reg, "bench"))
			r.WithExecutor(&timedExecutor{tr: tr, parent: &cur, stats: ts.core})
		}
		root := tr.Begin(0, rootLayer, fmt.Sprintf("paper-sweep rep %d", rep), "")
		got, err := renderAll(r, tr, root, &cur)
		if err == nil {
			err = checkReport(got, ref)
		}
		tr.End(root)
		ms, instr := cellLatencies(col)
		st := repStats{Instructions: instr, Ops: len(ms)}
		if err != nil {
			return st, err
		}
		if on {
			ts.runner, ts.report = r, got
			traced = ts
		} else {
			lat = append(lat, ms...)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range reps {
		res.Attempted += r.Ops
	}
	repMetrics(reps, res.E2E, res)
	opMetrics(res, "cell", lat, sweepTailPct)
	if cfg.Traced {
		tracingOverhead(reps, res)
		traced.core.report(res, 0)
		experimentsLayer(res, runnerCounts(traced.reg, "bench"))
		if err := measureRender(traced.runner, traced.report, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedSweep is what the last traced sweep repetition leaves for the
// per-layer report.
type tracedSweep struct {
	reg    *metrics.Registry
	core   *coreStats
	runner *experiments.Runner
	report string
}
