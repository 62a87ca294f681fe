// Command perfbench is the repository's benchmark. It runs one named
// workload in a fresh process, checks that workload's outputs, and prints
// its metrics: the end-to-end metrics with tracing off, the per-layer
// metrics with --trace 1. See README.md for the workloads, the metric
// definitions and how to read them.
//
//	python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one reported metric: name and unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of untraced runs, printed by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minstr_per_s", "MInstr/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// layers are the modules whose self time the traced run reports.
var layers = []string{"minic", "asm", "vm", "trace", "core", "experiments", "store", "server", "cluster"}

// perLayer lists the metrics of traced runs, printed by every workload; a
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"minic.compile_s", "s"}, {"asm.assemble_s", "s"},
		{"vm.records", "count"}, {"vm.busy_s", "s"}, {"vm.mrec_per_s", "MRec/s"},
		{"trace.spool_write_s", "s"}, {"trace.spool_validate_s", "s"}, {"trace.spool_read_s", "s"},
		{"trace.spool_bytes", "bytes"}, {"trace.read_mrec_per_s", "MRec/s"},
		{"core.cells", "count"}, {"core.instructions", "count"}, {"core.sim_cycles", "cycles"},
		{"core.busy_s", "s"}, {"core.minstr_per_busy_s", "MInstr/s"},
		{"core.ns_per_instr.w4", "ns"}, {"core.ns_per_instr.w2048", "ns"},
		{"core.ns_per_instr.A", "ns"}, {"core.ns_per_instr.D", "ns"},
		{"experiments.cells", "count"}, {"experiments.computed", "count"},
		{"experiments.cache_hit_ratio", "ratio"}, {"experiments.render_s", "s"},
		{"store.gets", "count"}, {"store.hit_ratio", "ratio"}, {"store.get_ms.p50", "ms"},
		{"store.puts", "count"}, {"store.put_ms.p50", "ms"}, {"store.put_ms.p90", "ms"},
		{"server.submits", "count"}, {"server.shed", "count"}, {"server.submit_ms.p50", "ms"},
		{"server.poll_ms.p50", "ms"}, {"server.polls_per_job", "ratio"}, {"server.queue_ms.p50", "ms"},
		{"server.run_ms.p50", "ms"}, {"server.generator_late_ms", "ms"},
		{"server.fresh_job_p50_ms", "ms"}, {"server.stored_job_p50_ms", "ms"}, {"server.max_jobs_per_s", "jobs/s"},
		{"cluster.batches", "count"}, {"cluster.cells_per_batch", "ratio"},
		{"cluster.dispatch_wait_ms.p50", "ms"}, {"cluster.batch_rtt_ms.p50", "ms"},
		{"cluster.wire_bytes", "bytes"}, {"cluster.worker_regens", "count"},
		{"cluster.useful_ratio", "ratio"}, {"cluster.local_fallbacks", "count"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return append(defs, metricDef{"unattributed_s", "s"}, metricDef{"tracing_overhead_pct", "%"},
		metricDef{"peak_live_heap_mib", "MiB"})
}()

// workloadFuncs maps each workload name to its implementation.
var workloadFuncs = map[string]func(*runConfig) (*result, error){
	"paper-sweep":   paperSweep,
	"trace-spool":   traceSpool,
	"serve-mixed":   serveMixed,
	"cluster-sweep": clusterSweep,
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Traced  bool
	Work    string // scratch directory inside the checkout, removed at exit
	Refs    string // reference outputs kept with the benchmark
	tr      *Recorder
}

// result is what a workload reports.
type result struct {
	Attempted, Failed int
	E2E               map[string]float64
	Layer             map[string]float64
	Notes             [][2]string
}

func newResult() *result {
	return &result{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *result) layer(name string, v float64) { r.Layer[name] = v }

// note records a human-readable line printed before the result: ratios
// with their bases, sample counts, percentiles actually used.
func (r *result) note(name, text string) { r.Notes = append(r.Notes, [2]string{name, text}) }

// addSelfTimes folds the recorder's span tree into per-layer self times
// and the unattributed remainder.
func (r *result) addSelfTimes(spans []Span) {
	self := selfTimes(spans)
	for _, l := range layers {
		r.layer(l+".self_s", self[l])
	}
	r.layer("unattributed_s", self[rootLayer])
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range append(append([]string(nil), layers...), rootLayer) {
		r.note(l+" share of self time", ratio{self[l], total, "s self / s all self time"}.String())
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sweep, trace-spool, serve-mixed or cluster-sweep")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 28, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refs := fs.String("refs", filepath.Join("perfbench", "refs"), "reference outputs directory")
	writeRefs := fs.Bool("write-refs", false, "regenerate the reference outputs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRefs {
		if err := writeReferences(*refs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloadFuncs[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = filepath.Join(".bench_build", "work")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := &runConfig{Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Work: work, Refs: *refs}
	if cfg.Traced {
		cfg.tr = newRecorder()
	}
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s failed: %v\n", *name, err)
		return 1
	}
	if cfg.Traced {
		res.addSelfTimes(cfg.tr.Spans())
		spanFile := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := cfg.tr.WriteFile(spanFile); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.note("spans", spanFile)
	}
	if err := report(stdout, res, cfg.Traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the notes, one line per metric, and the JSON result line.
// Untraced runs must have produced every end-to-end metric; a per-layer
// metric a workload never touched reads 0.
func report(w io.Writer, res *result, traced bool) error {
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s: %s\n", n[0], n[1])
	}
	defs, vals := endToEnd, res.E2E
	if traced {
		defs, vals = perLayer, res.Layer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced {
			return fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "%-32s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, res.Attempted, res.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
