package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile sorted its input: %v", xs)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even count is the mean of the middle two")
	}
}

// TestTailPercentileRule pins the percentile rule: the highest percentile
// with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n         int
		limit     float64
		wantPct   float64
		wantValue float64
	}{
		{10000, 99.9, 99.9, 9990}, // exactly ten beyond p99.9
		{9999, 99.9, 99, 9900},    // one short of p99.9: fall to p99
		{1000, 99, 99, 990},
		{999, 99, 98, 980},
		{100, 99, 90, 90},
		{40, 99, 75, 30},
		{20, 99, 50, 10},
		{19, 99, 0, 19}, // not even the median has ten beyond: the maximum
		{10000, 99, 99, 9900},
	}
	for _, c := range cases {
		pct, v := tailPct(seq(c.n), c.limit)
		if pct != c.wantPct || v != c.wantValue {
			t.Errorf("n=%d limit=%g: p%g = %g, want p%g = %g", c.n, c.limit, pct, v, c.wantPct, c.wantValue)
		}
		if pct > 0 && beyond(c.n, pct) < minBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond", c.n, pct, minBeyond)
		}
	}
}

func TestOpMetricsReportsPercentileAndCount(t *testing.T) {
	res := newResult()
	opMetrics(res, "job", seq(2400), 99)
	if res.E2E["job_p99_ms"] != 2376 || res.E2E["job_p50_ms"] != 1200.5 {
		t.Fatalf("p99 %v p50 %v", res.E2E["job_p99_ms"], res.E2E["job_p50_ms"])
	}
	if got := res.Notes[0][1]; got != "p99 of 2400 job latencies (24 beyond)" {
		t.Errorf("note %q", got)
	}
	// Too few samples for the fixed percentile: the rule picks a lower one.
	res = newResult()
	opMetrics(res, "cell", seq(300), sweepTailPct)
	if got := res.Notes[0][1]; got != "p95 of 300 cell latencies (15 beyond)" {
		t.Errorf("note %q", got)
	}
}

func span(id, parent int, layer string, start, end float64) Span {
	return Span{ID: id, Parent: parent, Layer: layer, Start: int64(start * 1e9), End: int64(end * 1e9), Weight: 1}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSelfTimeOverlappingWorkers: two workers' cells overlap under one
// parent; the parent's self time subtracts their union once.
func TestSelfTimeOverlappingWorkers(t *testing.T) {
	spans := []Span{
		span(1, 0, rootLayer, 0, 10),
		span(2, 1, "experiments", 1, 9),
		span(3, 2, "core", 2, 6), // worker 1
		span(4, 2, "core", 4, 8), // worker 2, overlapping worker 1 over [4, 6]
		span(5, 3, "trace", 3, 4),
	}
	self := selfTimes(spans)
	want := map[string]float64{rootLayer: 2, "experiments": 2, "core": 3 + 4, "trace": 1}
	for l, w := range want {
		if !approx(self[l], w) {
			t.Errorf("%s self = %v, want %v", l, self[l], w)
		}
	}
}

func TestSelfTimeClipsAndWeights(t *testing.T) {
	spans := []Span{
		span(1, 0, rootLayer, 0, 4),
		span(2, 1, "cluster", 3, 6), // runs past its parent: only [3, 4] covers it
		{ID: 3, Parent: 2, Layer: "core", Start: 4e9, End: 5e9, Weight: 0.5},
		{ID: 4, Parent: 1, Layer: "vm", Start: 1e9, End: -1, Weight: 1}, // never closed
	}
	self := selfTimes(spans)
	if !approx(self[rootLayer], 3) || !approx(self["cluster"], 2) || !approx(self["core"], 0.5) || self["vm"] != 0 {
		t.Errorf("self times %v", self)
	}
}

func TestRecorderOffIsNoop(t *testing.T) {
	var r *Recorder
	id := r.Begin(0, "core", "x", "")
	r.End(id)
	r.SetEnd(r.Record(0, "core", "y", "", time.Now(), time.Now(), 1), time.Now())
	r.Truncate(r.Mark())
	if id != 0 || r.Spans() != nil {
		t.Error("a nil recorder must record nothing")
	}
	on := newRecorder()
	m := on.Mark()
	on.End(on.Begin(0, "core", "x", ""))
	on.Truncate(m)
	if len(on.Spans()) != 0 {
		t.Error("Truncate must drop spans after the mark")
	}
}

func TestRatioBases(t *testing.T) {
	r := ratio{3, 4, "hits / gets"}
	if r.Value() != 0.75 || r.String() != "0.75 (= 3 / 4 hits / gets)" {
		t.Errorf("%v %q", r.Value(), r.String())
	}
	if z := (ratio{5, 0, "x / y"}); z.Value() != 0 || !strings.Contains(z.String(), "/ 0 x / y") {
		t.Errorf("empty base: %q", z.String())
	}
	res := newResult()
	tracingOverhead([]repStats{
		{Wall: 2, CPU: 4}, {Traced: true, Wall: 2.5, CPU: 4.4},
		{Wall: 2, CPU: 4}, {Traced: true, Wall: 2.5, CPU: 4.4},
	}, res)
	if !approx(res.Layer["tracing_overhead_pct"], 25) {
		t.Errorf("overhead %v%%, want 25%% of the untraced wall", res.Layer["tracing_overhead_pct"])
	}
	if got := res.Notes[0][1]; got != "0.25 (= 0.5 / 2 s extra traced wall / s untraced wall)" {
		t.Errorf("note %q", got)
	}
}

func TestCheckReportNamesFirstDifference(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.txt")
	if err := os.WriteFile(ref, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkReport("a\nb\nc\n", ref); err != nil {
		t.Fatal(err)
	}
	err := checkReport("a\nB\nc\n", ref)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("got %v, want a difference at line 2", err)
	}
	if checkReport("a\nb\n", ref) == nil {
		t.Fatal("a truncated report must fail")
	}
}

// copyRefs copies the kept references into a temporary directory.
func copyRefs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir("refs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("refs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	t.Setenv("PERFBENCH_WORK", t.TempDir())
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunPrintsEveryEndToEndMetric runs paper-sweep briefly: the last line
// is the result object with every end-to-end metric.
func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	code, out, errOut := runBench(t, "--workload", "paper-sweep", "--seconds", "0.1", "--refs", "refs")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 150 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
}

// TestCorruptedReferenceFailsTheRun: a one-byte change to the kept
// reference report fails the run, and no result line is printed.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	refs := copyRefs(t)
	path := filepath.Join(refs, refName(paperScale))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '.')
	data[i+1] ^= 1 // one digit of the first decimal figure
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runBench(t, "--workload", "paper-sweep", "--seconds", "0.1", "--refs", refs)
	if code == 0 || strings.Contains(out, `"correct"`) {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	if !strings.Contains(errOut, "report differs") {
		t.Errorf("stderr %q", errOut)
	}
}

func TestWrongTraceReferenceFails(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referencePass(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{Work: t.TempDir()}
	var tot spoolTotals
	if _, err := spoolOne(cfg, nil, 0, w, ref, &tot); err != nil {
		t.Fatalf("true reference: %v", err)
	}
	for _, bad := range []traceRef{
		{ref.Records + 1, ref.Hash, ref.Fold},
		{ref.Records, ref.Hash ^ 1, ref.Fold},
		{ref.Records, ref.Hash, ref.Fold ^ 1},
	} {
		if _, err := spoolOne(cfg, nil, 0, w, bad, &tot); err == nil {
			t.Errorf("reference %+v passed", bad)
		}
	}
}

func TestCheckJobs(t *testing.T) {
	c := cell{"li", "D", 12}
	refs := map[string]int64{c.key(): 100}
	ok := &jobOutcome{plannedJob: plannedJob{cell: c}, ok: true, cycles: 100}
	refused := &jobOutcome{plannedJob: plannedJob{cell: c}, refused: true}
	ended := &jobOutcome{plannedJob: plannedJob{cell: c}, failed: true}
	failed, err := checkJobs([]*jobOutcome{ok, refused, ended}, refs)
	if err != nil || failed != 2 {
		t.Fatalf("failed %d err %v: refused and failed jobs count as failed, not as wrong", failed, err)
	}
	lost := &jobOutcome{plannedJob: plannedJob{cell: c}, err: os.ErrDeadlineExceeded}
	if _, err := checkJobs([]*jobOutcome{lost}, refs); err == nil {
		t.Fatal("a job the client lost track of must fail the run")
	}
	wrong := &jobOutcome{plannedJob: plannedJob{cell: c}, ok: true, cycles: 101}
	if _, err := checkJobs([]*jobOutcome{wrong}, refs); err == nil {
		t.Fatal("a done job with other than the reference cycles must fail the run")
	}
	if !math.IsInf(refused.latencyMS(), 1) {
		t.Error("a refused job misses every latency limit")
	}
}

func TestServeReferencesCoverEveryCell(t *testing.T) {
	refs, err := loadServeRefs("refs")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(serveUniverse()) {
		t.Errorf("%d reference cells, universe has %d", len(refs), len(serveUniverse()))
	}
}

// TestPlanSegment: the seed fixes the plan; each fresh and stored cell of
// the segment is requested exactly once; everything else is cached.
func TestPlanSegment(t *testing.T) {
	plan := func(seed int64) []plannedJob {
		rng := rand.New(rand.NewSource(seed))
		return planSegment(rng, newZipfPicker(rng), 1, 1500, serveRate)
	}
	a, b := plan(7), plan(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same plan")
	}
	if reflect.DeepEqual(a, plan(8)) {
		t.Fatal("another seed must give another plan")
	}
	kinds := map[string]map[string]int{}
	for i, j := range a {
		if i > 0 && j.due < a[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if kinds[j.kind] == nil {
			kinds[j.kind] = map[string]int{}
		}
		kinds[j.kind][j.cell.key()]++
	}
	want := map[string][]cell{kindFresh: freshGrid(1), kindStored: grid(segWidths(storedWidths, 1))}
	for kind, cells := range want {
		if len(kinds[kind]) != len(cells) {
			t.Errorf("%d distinct %s cells, want %d", len(kinds[kind]), kind, len(cells))
		}
		for _, c := range cells {
			if kinds[kind][c.key()] != 1 {
				t.Errorf("%s cell %s requested %d times", kind, c.key(), kinds[kind][c.key()])
			}
		}
	}
	for k := range kinds[kindCached] {
		if !strings.HasSuffix(k, "/w4") && !strings.HasSuffix(k, "/w8") && !strings.HasSuffix(k, "/w16") &&
			!strings.HasSuffix(k, "/w32") && !strings.HasSuffix(k, "/w2048") {
			t.Errorf("cached job on a cell set-up never warmed: %s", k)
		}
	}
	mean := a[len(a)-1].due.Seconds() / float64(len(a))
	if mean < 0.8/serveRate || mean > 1.2/serveRate {
		t.Errorf("mean gap %v s, want about %v", mean, 1/serveRate)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, benchmark has %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadFuncs) {
		t.Errorf("%d workloads, benchmark has %d", len(b.Workloads), len(workloadFuncs))
	}
	for _, w := range b.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
}
