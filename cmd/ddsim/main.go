// ddsim drives the dependence speculation & collapsing limit simulator.
//
// Reproduce paper experiments (Tables 1-6, Figures 2-10):
//
//	ddsim -experiment figure3
//	ddsim -experiment all -scale 200
//
// Or run one benchmark under one configuration and inspect the full
// statistics:
//
//	ddsim -benchmark li -config D -width 16
//
// Configurations: A base, B +load-speculation, C +collapsing, D both,
// E collapsing + ideal speculation.
//
// Robustness: -timeout bounds the whole invocation, SIGINT/SIGTERM cancel
// in-flight simulations but keep the experiments already printed, and
// -selfcheck runs every simulation with scheduler invariant sweeps.
// Durability: -store persists every completed simulation cell on disk
// (keyed by trace content + configuration fingerprint) so an interrupted
// sweep resumes from where it died; -resume insists the store directory
// already exists; -retries re-attempts transiently failing cells with
// backoff; -stall-timeout reaps cells whose progress heartbeats go silent
// (rendered as "n/a (stalled)"). Exit codes: 0 ok, 1 simulation failure,
// 2 usage, 3 corrupt trace input, 130 canceled (see docs/robustness.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/perf"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// robustOpts carries the durability/supervision flags shared by every run
// mode, plus the optional -benchjson performance collector.
type robustOpts struct {
	store     string
	resume    bool
	retries   int
	stall     time.Duration
	selfCheck bool
	perf      *perf.Collector
	traceOpts workloads.ProviderOptions
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (table1..table6, figure2..figure10, 'perbench', or 'all')")
		benchmark  = flag.String("benchmark", "", "run a single benchmark (compress, espresso, eqntott, li, go, ijpeg)")
		traceFile  = flag.String("trace", "", "simulate a binary trace file (see ddtrace) instead of a benchmark")
		config     = flag.String("config", "D", "machine configuration A..E")
		width      = flag.Int("width", 8, "maximum issue width")
		window     = flag.Int("window", 0, "window size (default 2x width)")
		scale      = flag.Int("scale", 0, "workload scale (0 = per-benchmark default)")
		spoolDir   = flag.String("spool", "", "spool workload traces to this directory instead of holding them in memory")
		maxTraceMB = flag.Int64("max-trace-mem", 0, "in-memory trace budget in MiB; larger traces regenerate on demand (0 = unbounded)")
		widths     = flag.String("widths", "", "comma-separated issue widths for experiments (default 4,8,16,32,2048)")
		listFlag   = flag.Bool("list", false, "list experiments and benchmarks")
		csvFlag    = flag.Bool("csv", false, "emit experiment data as CSV instead of tables")
		timeout    = flag.Duration("timeout", 0, "bound the whole run (0 = none); exceeding it cancels like SIGINT")
		selfCheck  = flag.Bool("selfcheck", false, "run scheduler invariant sweeps during every simulation")
		storeDir   = flag.String("store", "", "persist completed simulation results in this directory; later runs resume from it")
		resume     = flag.Bool("resume", false, "require -store to already exist (catches typos before recomputing a sweep)")
		retries    = flag.Int("retries", 0, "re-attempts after a transiently failing simulation cell")
		stall      = flag.Duration("stall-timeout", 0, "reap a simulation cell after this much progress silence (0 = off)")
		selfTest   = flag.Int("selftest", 0, "run N random traces through the differential conformance harness (core vs. reference oracle) and exit")
		seed       = flag.Int64("seed", 1, "base seed for -selftest trace generation")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		benchJSON  = flag.String("benchjson", "", "write per-cell simulation throughput (BENCH_*.json trajectory point) to this file")
	)
	flag.Parse()

	if *listFlag {
		list()
		return
	}
	if err := cli.CheckSpool(*spoolDir); err != nil {
		cli.Exit("ddsim", err)
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	stopProf, err := cli.Profiling(*cpuProfile, *memProfile)
	if err != nil {
		cli.Exit("ddsim", err)
	}

	opts := robustOpts{store: *storeDir, resume: *resume, retries: *retries,
		stall: *stall, selfCheck: *selfCheck,
		traceOpts: workloads.ProviderOptions{SpoolDir: *spoolDir, MaxMem: *maxTraceMB << 20}}
	if *benchJSON != "" {
		opts.perf = new(perf.Collector)
	}
	switch {
	case *selfTest > 0:
		err = runSelfTest(*seed, *selfTest)
	case *experiment != "":
		err = runExperiments(ctx, *experiment, *scale, *widths, *csvFlag, opts)
	case *traceFile != "":
		err = runTraceFile(ctx, *traceFile, *config, *width, *window, opts)
	case *benchmark != "":
		err = runSingle(ctx, *benchmark, *config, *width, *window, *scale, opts)
	default:
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if opts.perf != nil {
		if werr := cli.WriteBenchJSON(*benchJSON, opts.perf); werr != nil && err == nil {
			err = werr
		}
	}
	cli.Exit("ddsim", err)
}

// runSelfTest runs the differential conformance harness: n seeded random
// traces, each diffed between the optimized scheduler and the reference
// model (internal/oracle) at one point of the conformance grid. Any
// divergence prints a minimized repro and fails the run. CI's conformance
// job runs this with a fixed and a randomized seed; see docs/testing.md.
func runSelfTest(seed int64, n int) error {
	grid := oracle.DefaultGrid()
	points := len(grid.Configs) * len(grid.Widths) * len(grid.Windows)
	fmt.Printf("ddsim: conformance self-test: %d traces over %d grid points (seed %d)\n", n, points, seed)
	d := oracle.SelfTest(seed, n, grid, func(done int) {
		if done%256 == 0 || done == n {
			fmt.Fprintf(os.Stderr, "\rddsim: %d/%d traces checked ", done, n)
		}
	})
	fmt.Fprintln(os.Stderr)
	if d != nil {
		return fmt.Errorf("conformance self-test failed (seed %d):\n%s", seed, d.Error())
	}
	fmt.Printf("ddsim: conformance self-test passed: core.Run == oracle.Run on all %d traces\n", n)
	return nil
}

func list() {
	fmt.Println("Experiments:")
	for _, e := range experiments.Registry() {
		fmt.Printf("  %-9s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nBenchmarks:")
	for _, w := range workloads.All() {
		class := "non-pointer"
		if w.PointerChasing {
			class = "pointer-chasing"
		}
		fmt.Printf("  %-9s %-16s %s\n", w.Name, class, w.Description)
	}
}

func runExperiments(ctx context.Context, id string, scale int, widthsArg string, csv bool, opts robustOpts) error {
	r := experiments.NewRunner(scale).WithContext(ctx)
	r.SelfCheck = opts.selfCheck
	r.Retries = opts.retries
	r.StallTimeout = opts.stall
	if opts.traceOpts.SpoolDir != "" {
		r.WithTraceSpool(opts.traceOpts.SpoolDir)
	}
	if opts.traceOpts.MaxMem > 0 {
		r.WithMaxTraceMem(opts.traceOpts.MaxMem)
	}
	if opts.perf != nil {
		r.WithPerf(opts.perf)
	}
	st, err := cli.OpenStore(opts.store, opts.resume)
	if err != nil {
		return err
	}
	if st != nil {
		r.WithStoreHandle(st)
		defer cli.ReportStore("ddsim", "", st)
	}
	progress, done := cli.CellProgress("ddsim")
	r.OnCellDone = progress
	defer done()
	if widthsArg != "" {
		for _, part := range strings.Split(widthsArg, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w <= 0 {
				return cli.Usagef("bad width %q", part)
			}
			r.Widths = append(r.Widths, w)
		}
	}
	if id == "perbench" {
		rep, err := experiments.PerBenchmarkReport(r, 8)
		if err != nil {
			return err
		}
		printReport(rep, csv)
		return nil
	}
	entries := experiments.Registry()
	if id != "all" {
		e, err := experiments.ByID(id)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		entries = []experiments.RegistryEntry{e}
	}
	degraded := 0
	for i, e := range entries {
		rep, err := e.Run(r)
		if err != nil {
			// Only cancellation aborts an experiment; everything printed so
			// far is complete. Note how far we got before bailing out.
			fmt.Fprintf(os.Stderr, "ddsim: completed %d/%d experiments\n", i, len(entries))
			return err
		}
		if rep.Degraded() {
			degraded++
		}
		printReport(rep, csv)
	}
	if degraded > 0 {
		return fmt.Errorf("%d/%d experiment(s) degraded (cells rendered as n/a)", degraded, len(entries))
	}
	return nil
}

func printReport(rep *experiments.Report, csv bool) {
	if csv && rep.CSV != "" {
		fmt.Printf("# %s: %s\n%s\n", rep.ID, rep.Title, rep.CSV)
		return
	}
	fmt.Printf("== %s: %s ==\n%s\n", rep.ID, rep.Title, rep.Text)
}

// runTraceFile simulates a saved binary trace under one configuration.
// The store key uses the trace's *content* hash, so a renamed file still
// hits and an edited one cannot.
func runTraceFile(ctx context.Context, path, config string, width, window int, opts robustOpts) error {
	cfg, err := core.ConfigByName(config)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	st, err := cli.OpenStore(opts.store, opts.resume)
	if err != nil {
		return err
	}
	// Each attempt's stream closes its file when it ends or is abandoned.
	open := func() (trace.Source, error) { return trace.OpenFile(path) }
	var key store.Key
	if st != nil {
		// One validating pass over the file yields its content hash.
		sp, err := trace.OpenSpool(path)
		if err != nil {
			return err
		}
		hash, _, _ := sp.ContentHash()
		key = store.Key{Trace: hash, Config: cfg.Fingerprint(), Width: width,
			Scale: 1, Window: window, Checked: opts.selfCheck,
			Workload: filepath.Base(path)}
	}
	progress, done := cli.Progress("ddsim")
	timer := perf.Start()
	res, fromStore, err := cli.Simulate(ctx, cli.SimOptions{
		Store: st, Key: key, Retries: opts.retries, Stall: opts.stall, Progress: progress,
	}, cfg, core.Params{Width: width, WindowSize: window, SelfCheck: opts.selfCheck}, open)
	done()
	cli.ReportStore("ddsim", "", st)
	if err != nil {
		return err
	}
	if opts.perf != nil && !fromStore {
		opts.perf.Record(perf.Cell{Workload: filepath.Base(path), Config: cfg.Name, Width: width,
			Instructions: res.Instructions, Seconds: timer.Seconds()})
	}
	fmt.Printf("trace        %s\n", path)
	printResult(cfg, res, opts.selfCheck)
	return nil
}

func runSingle(ctx context.Context, benchmark, config string, width, window, scale int, opts robustOpts) error {
	w, err := workloads.ByName(benchmark)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	cfg, err := core.ConfigByName(config)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	st, err := cli.OpenStore(opts.store, opts.resume)
	if err != nil {
		return err
	}
	prov, err := w.Provider(ctx, scale, opts.traceOpts)
	if err != nil {
		return err
	}
	var key store.Key
	if st != nil {
		hash, _, herr := prov.ContentHash()
		if herr != nil {
			return herr
		}
		effScale := scale
		if effScale <= 0 {
			effScale = w.DefaultScale
		}
		key = store.Key{Trace: hash, Config: cfg.Fingerprint(), Width: width,
			Scale: effScale, Window: window, Checked: opts.selfCheck, Workload: w.Name}
	}
	progress, done := cli.Progress("ddsim")
	timer := perf.Start()
	res, fromStore, err := cli.Simulate(ctx, cli.SimOptions{
		Store: st, Key: key, Retries: opts.retries, Stall: opts.stall, Progress: progress,
	}, cfg, core.Params{Width: width, WindowSize: window, SelfCheck: opts.selfCheck},
		func() (trace.Source, error) { return prov.Open() })
	done()
	cli.ReportStore("ddsim", "", st)
	if err != nil {
		return err
	}
	if opts.perf != nil && !fromStore {
		opts.perf.Record(perf.Cell{Workload: w.Name, Config: cfg.Name, Width: width,
			Instructions: res.Instructions, Seconds: timer.Seconds()})
	}

	fmt.Printf("benchmark    %s (%s)\n", w.Name, w.Description)
	printResult(cfg, res, opts.selfCheck)
	return nil
}

func printResult(cfg core.Config, res *core.Result, selfCheck bool) {
	fmt.Printf("config       %s  width %d  window %d\n", cfg.Name, res.Width, res.Window)
	fmt.Printf("instructions %d\n", res.Instructions)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("IPC          %.3f\n", res.IPC())
	if selfCheck {
		fmt.Printf("self-check   %d invariant sweeps, 0 violations\n", res.SelfChecks)
	}
	fmt.Printf("branches     %d conditional, %.2f%% predicted correctly\n",
		res.CondBranches, res.BranchAccuracy())
	if cfg.LoadSpec || cfg.IdealLoadSpec {
		fmt.Printf("loads        %d: ready %.1f%%, predicted correctly %.1f%%, incorrectly %.1f%%, not predicted %.1f%%\n",
			res.Loads, res.LoadPercent(res.LoadReady), res.LoadPercent(res.LoadPredCorrect),
			res.LoadPercent(res.LoadPredIncorrect), res.LoadPercent(res.LoadNotPred))
	}
	if cfg.LoadValuePred {
		fmt.Printf("value pred   correct %.1f%%, incorrect %.1f%%, not predicted %.1f%%\n",
			res.LoadPercent(res.ValuePredCorrect), res.LoadPercent(res.ValuePredIncorrect),
			res.LoadPercent(res.ValueNotPred))
	}
	if cfg.Collapse {
		fmt.Printf("collapsing   %.1f%% of instructions, %d groups (3-1 %.1f%%, 4-1 %.1f%%, 0-op %.1f%%), mean distance %.2f\n",
			res.CollapsedPercent(), res.TotalGroups(),
			res.CategoryPercent(collapse.Cat31), res.CategoryPercent(collapse.Cat41),
			res.CategoryPercent(collapse.Cat0Op), res.MeanDistance())
		fmt.Println("top pairs:")
		for _, sc := range core.TopSigs(res.PairSigs, 6) {
			fmt.Printf("  %-14s %d\n", sc.Sig, sc.Count)
		}
		fmt.Println("top triples:")
		for _, sc := range core.TopSigs(res.TripleSigs, 6) {
			fmt.Printf("  %-20s %d\n", sc.Sig, sc.Count)
		}
	}
}
