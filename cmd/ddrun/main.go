// ddrun executes a MiniC (.mc) or SV8 assembly (.s) program on the
// emulator and reports its output and dynamic trace statistics.
//
//	ddrun prog.mc
//	ddrun -mix prog.s          # also print the instruction-class mix
//	ddrun -timeout 10s prog.mc # bound wall-clock time
//	ddrun -selfcheck prog.mc   # simulate the trace with invariant sweeps
//
// The -selfcheck simulation participates in the durability stack: -store
// persists its result (keyed by trace content, so a changed program never
// hits), -resume insists the store already exists, -retries re-attempts
// transient failures, and -stall-timeout reaps a hung simulation.
//
// Exit codes: 0 ok, 1 execution failure, 2 usage, 130 canceled (see
// docs/robustness.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/perf"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	var (
		mixFlag    = flag.Bool("mix", false, "print the instruction-class mix of the dynamic trace")
		maxSteps   = flag.Int64("maxsteps", 1<<30, "execution step limit")
		timeout    = flag.Duration("timeout", 0, "bound the run's wall-clock time (0 = none)")
		selfCheck  = flag.Bool("selfcheck", false, "simulate the dynamic trace (config D, width 8) with scheduler invariant sweeps")
		storeDir   = flag.String("store", "", "persist the -selfcheck result in this directory; later runs resume from it")
		resume     = flag.Bool("resume", false, "require -store to already exist (catches typos before recomputing a sweep)")
		retries    = flag.Int("retries", 0, "re-attempts after a transient -selfcheck failure")
		stall      = flag.Duration("stall-timeout", 0, "reap the -selfcheck simulation after this much progress silence (0 = off)")
		spoolDir   = flag.String("spool", "", "spool the dynamic trace to this directory instead of holding it in memory")
		maxTraceMB = flag.Int64("max-trace-mem", 0, "in-memory trace budget in MiB; a larger trace re-executes on demand (0 = unbounded)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		benchJSON  = flag.String("benchjson", "", "write execution/simulation throughput (BENCH_*.json trajectory point) to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ddrun [-mix] [-selfcheck] [-store dir [-resume]] [-retries n] [-stall-timeout d] [-timeout d] [-cpuprofile f] [-memprofile f] [-benchjson f] prog.{mc,s}")
		os.Exit(cli.ExitUsage)
	}
	cli.Exit("ddrun", run(flag.Arg(0), *mixFlag, *selfCheck, *maxSteps, *timeout,
		*storeDir, *resume, *retries, *stall, *spoolDir, *maxTraceMB<<20,
		*cpuProfile, *memProfile, *benchJSON))
}

func run(path string, mixFlag, selfCheck bool, maxSteps int64, timeout time.Duration,
	storeDir string, resume bool, retries int, stall time.Duration,
	spoolDir string, maxTraceMem int64,
	cpuProfile, memProfile, benchJSON string) (err error) {
	ctx, stop := cli.Context(timeout)
	defer stop()

	stopProf, err := cli.Profiling(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	var coll *perf.Collector
	if benchJSON != "" {
		coll = new(perf.Collector)
		defer func() {
			if werr := cli.WriteBenchJSON(benchJSON, coll); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	st, err := cli.OpenStore(storeDir, resume)
	if err != nil {
		return err
	}
	if st != nil && !selfCheck {
		fmt.Fprintln(os.Stderr, "ddrun: -store only persists -selfcheck results; nothing will be stored")
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	asmText := string(src)
	if strings.HasSuffix(path, ".mc") {
		asmText, err = minic.Compile(string(src))
		if err != nil {
			return err
		}
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return err
	}

	needTrace := mixFlag || selfCheck || coll != nil
	var prov trace.Provider
	var nrec int64
	var hash uint64
	var out []int32
	timer := perf.Start()
	if needTrace {
		prov, out, err = traceProvider(ctx, prog, maxSteps, spoolDir, maxTraceMem, path)
		if err == nil {
			hash, nrec, err = prov.ContentHash()
		}
	} else {
		out, err = vm.Exec(prog, vm.WithMaxSteps(maxSteps), vm.WithContext(ctx))
	}
	if err != nil {
		return err
	}
	if coll != nil {
		coll.Record(perf.Cell{Workload: filepath.Base(path), Config: "exec", Width: 1,
			Instructions: nrec, Seconds: timer.Seconds()})
	}
	for _, v := range out {
		fmt.Println(v)
	}
	if mixFlag {
		fmt.Fprintf(os.Stderr, "%d dynamic instructions\n", nrec)
		src, err := prov.Open()
		if err != nil {
			return err
		}
		mix := trace.CollectMix(src)
		if err := trace.SourceErr(src); err != nil {
			trace.CloseSource(src)
			return err
		}
		trace.CloseSource(src)
		fmt.Fprint(os.Stderr, mix.String())
	}
	if selfCheck {
		progress, done := cli.Progress("ddrun")
		simTimer := perf.Start()
		opt := cli.SimOptions{
			Store: st,
			Key: store.Key{
				Trace:    hash,
				Config:   core.ConfigD.Fingerprint(),
				Width:    8,
				Scale:    1,
				Checked:  true,
				Workload: filepath.Base(path),
			},
			Retries:  retries,
			Stall:    stall,
			Progress: progress,
		}
		res, fromStore, err := cli.Simulate(ctx, opt, core.ConfigD,
			core.Params{Width: 8, SelfCheck: true},
			func() (trace.Source, error) { return prov.Open() })
		done()
		cli.ReportStore("ddrun", "", st)
		if err != nil {
			return fmt.Errorf("self-check failed: %w", err)
		}
		if coll != nil && !fromStore {
			coll.Record(perf.Cell{Workload: filepath.Base(path), Config: core.ConfigD.Name, Width: 8,
				Instructions: res.Instructions, Seconds: simTimer.Seconds()})
		}
		how := ""
		if fromStore {
			how = " (served from store)"
		}
		fmt.Fprintf(os.Stderr, "self-check ok%s: %d invariant sweeps over %d instructions, 0 violations\n",
			how, res.SelfChecks, res.Instructions)
	}
	return nil
}

// traceProvider executes prog once and returns its dynamic trace as a
// provider plus the program's output, under the chosen trace-plane
// strategy: -spool streams records straight to disk (never materialized),
// -max-trace-mem buffers only while the trace fits and re-executes on
// demand past it, and the default keeps the classic in-memory buffer.
func traceProvider(ctx context.Context, prog *isa.Program, maxSteps int64,
	spoolDir string, maxMem int64, path string) (trace.Provider, []int32, error) {
	if spoolDir == "" && maxMem <= 0 {
		buf, out, err := vm.Trace(prog, vm.WithMaxSteps(maxSteps), vm.WithContext(ctx))
		return buf, out, err
	}
	stream := func() (*vm.TraceStream, error) {
		return vm.StreamTrace(ctx, prog, 0, vm.WithMaxSteps(maxSteps))
	}
	ts, err := stream()
	if err != nil {
		return nil, nil, err
	}
	if spoolDir != "" {
		// No cross-run reuse: unlike workload spools, the program behind a
		// path can change between invocations, so every run writes afresh.
		sp, err := trace.SpoolFrom(filepath.Join(spoolDir, filepath.Base(path)+".trace"), ts)
		if err != nil {
			trace.CloseSource(ts)
			return nil, nil, err
		}
		out, _ := ts.Output()
		return sp, out, nil
	}
	maxRecords := maxMem / int64(unsafe.Sizeof(trace.Record{}))
	hs := trace.NewHasher()
	buf := &trace.Buffer{}
	var rec trace.Record
	for ts.Next(&rec) {
		hs.WriteRecord(&rec)
		if buf != nil {
			if int64(buf.Len()) >= maxRecords {
				buf = nil
			} else {
				buf.Append(rec)
			}
		}
	}
	if err := ts.Err(); err != nil {
		return nil, nil, err
	}
	out, _ := ts.Output()
	if buf != nil {
		return buf, out, nil
	}
	prov := trace.NewRegenProviderHashed(func() (trace.ErrSource, error) {
		return stream()
	}, hs.Sum64(), hs.Records())
	return prov, out, nil
}
