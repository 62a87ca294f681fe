package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bpred"
	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// --- Graceful degradation helpers ---------------------------------------------

// collector accumulates cell failures, deduplicated by message (the same
// broken workload surfaces once, not once per width and config).
type collector struct {
	seen map[string]bool
	errs []error
}

func (c *collector) add(err error) {
	if err == nil {
		return
	}
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	msg := err.Error()
	if c.seen[msg] {
		return
	}
	c.seen[msg] = true
	c.errs = append(c.errs, err)
}

// naCell renders a possibly-missing metric: NaN marks a cell whose every
// contributing run failed and renders as "n/a".
func naCell(v float64) any {
	if math.IsNaN(v) {
		return "n/a"
	}
	return v
}

// failedCell renders a metric whose run may have been reaped by the stall
// watchdog or the per-cell deadline: reaped cells say which supervisor
// fired, other failures stay plain "n/a".
func failedCell(v float64, stalled, deadlined bool) any {
	switch {
	case deadlined:
		return "n/a (deadline)"
	case stalled:
		return "n/a (stalled)"
	}
	return naCell(v)
}

// errSummary renders the trailing failure summary appended to degraded
// reports.
func errSummary(errs []error) string {
	if len(errs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n%d failure(s); affected cells render as n/a:\n", len(errs))
	for _, e := range errs {
		fmt.Fprintf(&b, "  ! %v\n", e)
	}
	return b.String()
}

// --- Table 1: benchmark characteristics --------------------------------------

// Table1Row describes one benchmark like the paper's Table 1.
type Table1Row struct {
	Name           string
	PointerChasing bool
	Scale          int
	Instructions   int64
}

// Table1Data computes the benchmark characteristics. A workload whose
// trace fails is omitted from rows and reported in the second return; only
// cancellation is a hard error.
func Table1Data(r *Runner) ([]Table1Row, []error, error) {
	var rows []Table1Row
	var c collector
	for _, w := range workloads.All() {
		prov, err := w.Provider(r.Context(), r.Scale, r.traceOpts)
		if err == nil {
			// The provider knows its record count without a replay (spools
			// and regeneration providers carry it; buffers count in O(1)) —
			// never pay a hash pass just to size a table row.
			var n int64
			n, err = trace.ProviderRecords(prov)
			if err == nil {
				rows = append(rows, Table1Row{
					Name:           w.Name,
					PointerChasing: w.PointerChasing,
					Scale:          r.scaleFor(w),
					Instructions:   n,
				})
				continue
			}
		}
		if canceled(err) {
			return nil, nil, err
		}
		c.add(fmt.Errorf("experiments: tracing %s: %w", w.Name, err))
	}
	return rows, c.errs, nil
}

// Table1 renders Table 1.
func Table1(r *Runner) (*Report, error) {
	rows, errs, err := Table1Data(r)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Name", "Class", "Scale", "Trace Size")
	for _, row := range rows {
		class := "non-pointer"
		if row.PointerChasing {
			class = "pointer-chasing"
		}
		t.AddRowf(row.Name, class, row.Scale, row.Instructions)
	}
	return &Report{ID: "table1", Title: "Benchmark Characteristics",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// --- Table 2: branch characteristics ------------------------------------------

// Table2Row holds one benchmark's conditional-branch statistics.
type Table2Row struct {
	Name            string
	CondBranchesPct float64
	PredictedPct    float64
}

// Table2Data measures the conditional-branch fraction and the 8 kB
// McFarling predictor's accuracy per benchmark, as in the paper's Table 2.
// Failed workloads degrade to the error list instead of aborting.
func Table2Data(r *Runner) ([]Table2Row, []error, error) {
	var rows []Table2Row
	var c collector
	for _, w := range workloads.All() {
		row, err := table2Row(r, w)
		if err != nil {
			if canceled(err) {
				return nil, nil, err
			}
			c.add(fmt.Errorf("experiments: tracing %s: %w", w.Name, err))
			continue
		}
		rows = append(rows, row)
	}
	return rows, c.errs, nil
}

// table2Row measures one workload's branch statistics in a single
// streaming pass: the instruction mix and the predictor accuracy fold over
// the same open, so the trace is never materialized (and a spooled or
// regenerated trace is replayed once, not twice).
func table2Row(r *Runner, w *workloads.Workload) (Table2Row, error) {
	prov, err := w.Provider(r.Context(), r.Scale, r.traceOpts)
	if err != nil {
		return Table2Row{}, err
	}
	src, err := prov.Open()
	if err != nil {
		return Table2Row{}, err
	}
	defer trace.CloseSource(src)
	var mix trace.Mix
	pred := bpred.NewPaper8KB()
	var acc bpred.Accuracy
	var rec trace.Record
	for src.Next(&rec) {
		mix.Observe(&rec)
		if rec.Instr.IsCondBranch() {
			acc.Observe(pred, rec.PC, rec.Taken)
		}
	}
	if err := trace.SourceErr(src); err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Name:            w.Name,
		CondBranchesPct: mix.CondBranchPercent(),
		PredictedPct:    acc.Rate(),
	}, nil
}

// Table2 renders Table 2.
func Table2(r *Runner) (*Report, error) {
	rows, errs, err := Table2Data(r)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Name", "Conditional Branches (%)", "Predicted Correctly (%)")
	for _, row := range rows {
		t.AddRowf(row.Name, row.CondBranchesPct, row.PredictedPct)
	}
	return &Report{ID: "table2", Title: "Benchmark Branch Characteristics",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// --- Figures 2-7: IPC and speedup ---------------------------------------------

// PerfData holds harmonic-mean IPC and speedup for one benchmark set,
// indexed by configuration name then width (the contents of Figures 2-7).
// A NaN mean marks a cell whose every contributing run failed; Errs lists
// the deduplicated failures behind any NaN (the report renders them after
// the table).
type PerfData struct {
	Widths  []int
	IPC     map[string]map[int]float64
	Speedup map[string]map[int]float64 // relative to configuration A
	Errs    []error
}

// Performance runs configurations A-E across the widths for one set and
// summarizes with harmonic means, as in Figures 2-7. Failed cells degrade
// to means over the surviving benchmarks (NaN when none survive); only
// cancellation aborts.
func Performance(r *Runner, set []*workloads.Workload) (*PerfData, error) {
	widths := r.widths()
	if err := r.Prefetch(set, core.Configs(), widths); err != nil && canceled(err) {
		return nil, err
	}
	d := &PerfData{
		Widths:  widths,
		IPC:     make(map[string]map[int]float64),
		Speedup: make(map[string]map[int]float64),
	}
	var c collector
	for _, cfg := range core.Configs() {
		d.IPC[cfg.Name] = make(map[int]float64)
		d.Speedup[cfg.Name] = make(map[int]float64)
		for _, width := range widths {
			var ipcs, speedups []float64
			for _, w := range set {
				res, err := r.Result(w, cfg, width)
				if err != nil {
					if canceled(err) {
						return nil, err
					}
					c.add(err)
					continue
				}
				base, err := r.Result(w, core.ConfigA, width)
				if err != nil {
					if canceled(err) {
						return nil, err
					}
					c.add(err)
					continue
				}
				ipcs = append(ipcs, res.IPC())
				speedups = append(speedups, res.SpeedupOver(base))
			}
			d.IPC[cfg.Name][width] = degradedMean(ipcs)
			d.Speedup[cfg.Name][width] = degradedMean(speedups)
		}
	}
	d.Errs = c.errs
	return d, nil
}

// degradedMean is the harmonic mean over the surviving benchmarks, NaN
// when none survived.
func degradedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.HarmonicMean(xs)
}

// FigureIPC renders the IPC data (Figures 2, 4, 6) as a table plus an
// ASCII chart shaped like the paper's figure.
func FigureIPC(r *Runner, id string, set []*workloads.Workload) (*Report, error) {
	d, err := Performance(r, set)
	if err != nil {
		return nil, err
	}
	t := newConfigWidthTable(d.Widths)
	for _, cfg := range core.Configs() {
		cells := []any{cfg.Name}
		for _, width := range d.Widths {
			cells = append(cells, naCell(d.IPC[cfg.Name][width]))
		}
		t.AddRowf(cells...)
	}
	text := t.String()
	if len(d.Errs) == 0 {
		// The chart's y-axis scaling cannot place NaN cells; degraded
		// reports keep the table (with n/a) and drop the chart.
		text += "\n" + perfChart("IPC", d.Widths, d.IPC)
	}
	text += errSummary(d.Errs)
	return &Report{ID: id, Title: "Harmonic mean IPC (" + setName(set) + ")", Text: text, CSV: t.CSV(), Errs: d.Errs}, nil
}

// FigureSpeedup renders the speedup data (Figures 3, 5, 7) as a table plus
// an ASCII chart.
func FigureSpeedup(r *Runner, id string, set []*workloads.Workload) (*Report, error) {
	d, err := Performance(r, set)
	if err != nil {
		return nil, err
	}
	t := newConfigWidthTable(d.Widths)
	for _, cfg := range core.Configs() {
		cells := []any{cfg.Name}
		for _, width := range d.Widths {
			cells = append(cells, naCell(d.Speedup[cfg.Name][width]))
		}
		t.AddRowf(cells...)
	}
	text := t.String()
	if len(d.Errs) == 0 {
		text += "\n" + perfChart("SpeedUp", d.Widths, d.Speedup)
	}
	text += errSummary(d.Errs)
	return &Report{ID: id, Title: "Harmonic mean speedup over A (" + setName(set) + ")", Text: text, CSV: t.CSV(), Errs: d.Errs}, nil
}

// perfChart renders one config-per-series chart over the width axis.
func perfChart(yLabel string, widths []int, data map[string]map[int]float64) string {
	var series []stats.Series
	for _, cfg := range core.Configs() {
		pts := make([]float64, len(widths))
		for i, w := range widths {
			pts[i] = data[cfg.Name][w]
		}
		series = append(series, stats.Series{Name: cfg.Name, Points: pts})
	}
	labels := make([]string, len(widths))
	for i, w := range widths {
		labels[i] = widthName(w)
	}
	return stats.RenderChart(yLabel, labels, series, 12)
}

func newConfigWidthTable(widths []int) *stats.Table {
	header := []string{"Config"}
	for _, w := range widths {
		header = append(header, widthName(w))
	}
	return stats.NewTable(header...)
}

func widthName(w int) string {
	if w >= 1024 && w%1024 == 0 {
		return fmt.Sprintf("%dk", w/1024)
	}
	return fmt.Sprintf("%d", w)
}

func setName(set []*workloads.Workload) string {
	names := make([]string, len(set))
	for i, w := range set {
		names[i] = w.Name
	}
	return strings.Join(names, ",")
}

// --- Tables 3-4: load-speculation behaviour ------------------------------------

// LoadRow is one width's load-category breakdown under configuration D.
type LoadRow struct {
	Width        int
	ReadyPct     float64
	CorrectPct   float64
	IncorrectPct float64
	NotPredPct   float64
}

// LoadBehavior aggregates configuration D's load categories over a set,
// reproducing Tables 3 and 4. Failed runs degrade: a width with no
// surviving loads reports NaN percentages and the failures come back in the
// second return; only cancellation aborts.
func LoadBehavior(r *Runner, set []*workloads.Workload) ([]LoadRow, []error, error) {
	widths := r.widths()
	if err := r.Prefetch(set, []core.Config{core.ConfigD}, widths); err != nil && canceled(err) {
		return nil, nil, err
	}
	var rows []LoadRow
	var c collector
	for _, width := range widths {
		var loads, ready, correct, incorrect, notPred int64
		for _, w := range set {
			res, err := r.Result(w, core.ConfigD, width)
			if err != nil {
				if canceled(err) {
					return nil, nil, err
				}
				c.add(err)
				continue
			}
			loads += res.Loads
			ready += res.LoadReady
			correct += res.LoadPredCorrect
			incorrect += res.LoadPredIncorrect
			notPred += res.LoadNotPred
		}
		pct := func(n int64) float64 {
			if loads == 0 {
				return math.NaN()
			}
			return 100 * float64(n) / float64(loads)
		}
		rows = append(rows, LoadRow{
			Width: width, ReadyPct: pct(ready), CorrectPct: pct(correct),
			IncorrectPct: pct(incorrect), NotPredPct: pct(notPred),
		})
	}
	return rows, c.errs, nil
}

// LoadTable renders Table 3 or Table 4.
func LoadTable(r *Runner, id string, set []*workloads.Workload) (*Report, error) {
	rows, errs, err := LoadBehavior(r, set)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Issue Width", "Ready (%)", "Predicted Correctly (%)",
		"Predicted Incorrectly (%)", "Not Predicted (%)")
	for _, row := range rows {
		t.AddRowf(widthName(row.Width), naCell(row.ReadyPct), naCell(row.CorrectPct),
			naCell(row.IncorrectPct), naCell(row.NotPredPct))
	}
	return &Report{ID: id, Title: "Load-Speculation Behavior (" + setName(set) + ", config D)",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// --- Figures 8-10: collapsing behaviour -----------------------------------------

// CollapseRow summarizes configuration D's collapsing at one width.
type CollapseRow struct {
	Width        int
	CollapsedPct float64                         // Figure 8
	CategoryPct  [collapse.NumCategories]float64 // Figure 9
	DistancePct  [core.DistBuckets]float64       // Figure 10
	MeanDistance float64
}

// CollapseBehavior aggregates configuration D's collapse statistics over
// all benchmarks. Failed runs degrade: a width with no surviving runs
// reports NaN statistics, failures come back in the second return, and only
// cancellation aborts.
func CollapseBehavior(r *Runner) ([]CollapseRow, []error, error) {
	set := workloads.All()
	widths := r.widths()
	if err := r.Prefetch(set, []core.Config{core.ConfigD}, widths); err != nil && canceled(err) {
		return nil, nil, err
	}
	var rows []CollapseRow
	var c collector
	for _, width := range widths {
		var instrs, collapsed, groups, distCount, distSum int64
		var cats [collapse.NumCategories]int64
		var dists [core.DistBuckets]int64
		survivors := 0
		for _, w := range set {
			res, err := r.Result(w, core.ConfigD, width)
			if err != nil {
				if canceled(err) {
					return nil, nil, err
				}
				c.add(err)
				continue
			}
			survivors++
			instrs += res.Instructions
			collapsed += res.CollapsedInstrs
			groups += res.TotalGroups()
			distCount += res.DistCount
			distSum += res.DistSum
			for c := range cats {
				cats[c] += res.Groups[c]
			}
			for b := range dists {
				dists[b] += res.DistHist[b]
			}
		}
		row := CollapseRow{Width: width}
		if survivors == 0 {
			// Nothing ran at this width; every statistic is unknown, not
			// zero.
			row.CollapsedPct = math.NaN()
			row.MeanDistance = math.NaN()
			for i := range row.CategoryPct {
				row.CategoryPct[i] = math.NaN()
			}
			for i := range row.DistancePct {
				row.DistancePct[i] = math.NaN()
			}
			rows = append(rows, row)
			continue
		}
		if instrs > 0 {
			row.CollapsedPct = 100 * float64(collapsed) / float64(instrs)
		}
		for c := range cats {
			if groups > 0 {
				row.CategoryPct[c] = 100 * float64(cats[c]) / float64(groups)
			}
		}
		for b := range dists {
			if distCount > 0 {
				row.DistancePct[b] = 100 * float64(dists[b]) / float64(distCount)
			}
		}
		if distCount > 0 {
			row.MeanDistance = float64(distSum) / float64(distCount)
		}
		rows = append(rows, row)
	}
	return rows, c.errs, nil
}

// Figure8 renders the collapsed-instruction fractions.
func Figure8(r *Runner) (*Report, error) {
	rows, errs, err := CollapseBehavior(r)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Issue Width", "Instructions Collapsed (%)")
	for _, row := range rows {
		t.AddRowf(widthName(row.Width), naCell(row.CollapsedPct))
	}
	return &Report{ID: "figure8", Title: "Instructions D-Collapsed (config D)",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// Figure9 renders the 3-1 / 4-1 / 0-op contribution split.
func Figure9(r *Runner) (*Report, error) {
	rows, errs, err := CollapseBehavior(r)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Issue Width", "3-1 (%)", "4-1 (%)", "0-op (%)")
	for _, row := range rows {
		t.AddRowf(widthName(row.Width),
			naCell(row.CategoryPct[collapse.Cat31]),
			naCell(row.CategoryPct[collapse.Cat41]),
			naCell(row.CategoryPct[collapse.Cat0Op]))
	}
	return &Report{ID: "figure9", Title: "Contribution of the Three Collapsing Mechanisms (config D)",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// Figure10 renders the collapse-distance distribution.
func Figure10(r *Runner) (*Report, error) {
	rows, errs, err := CollapseBehavior(r)
	if err != nil {
		return nil, err
	}
	header := []string{"Issue Width"}
	for b := 1; b < core.DistBuckets; b++ {
		header = append(header, fmt.Sprintf("d=%d (%%)", b))
	}
	header = append(header, fmt.Sprintf("d>=%d (%%)", core.DistBuckets), "mean")
	t := stats.NewTable(header...)
	for _, row := range rows {
		cells := []any{widthName(row.Width)}
		for b := 0; b < core.DistBuckets; b++ {
			cells = append(cells, naCell(row.DistancePct[b]))
		}
		cells = append(cells, naCell(row.MeanDistance))
		t.AddRowf(cells...)
	}
	return &Report{ID: "figure10", Title: "Distance between D-Collapsed Instructions (config D)",
		Text: t.String() + errSummary(errs), CSV: t.CSV(), Errs: errs}, nil
}

// --- Tables 5-6: collapsed dependence signatures ---------------------------------

// SigTable holds, per width, each signature's percentage of all collapsed
// pair (or triple) groups, plus the row order (descending by the widest
// machine's percentages, like the paper's 2k-first column ordering).
type SigTable struct {
	Widths []int
	Rows   []string
	Pct    map[string]map[int]float64 // sig -> width -> percent
	Errs   []error                    // cell failures behind missing counts
}

// Signatures aggregates pair or triple signature frequencies under
// configuration D. Failed runs degrade — their signatures are simply
// missing from the counts and the failures come back in SigTable.Errs;
// only cancellation aborts.
func Signatures(r *Runner, triples bool, topN int) (*SigTable, error) {
	set := workloads.All()
	widths := r.widths()
	if err := r.Prefetch(set, []core.Config{core.ConfigD}, widths); err != nil && canceled(err) {
		return nil, err
	}
	st := &SigTable{Widths: widths, Pct: make(map[string]map[int]float64)}
	perWidthTotals := make(map[int]int64)
	counts := make(map[string]map[int]int64)
	var c collector
	for _, width := range widths {
		for _, w := range set {
			res, err := r.Result(w, core.ConfigD, width)
			if err != nil {
				if canceled(err) {
					return nil, err
				}
				c.add(err)
				continue
			}
			sigs := res.PairSigs
			if triples {
				sigs = res.TripleSigs
			}
			for sig, n := range sigs {
				if counts[sig] == nil {
					counts[sig] = make(map[int]int64)
				}
				counts[sig][width] += n
				perWidthTotals[width] += n
			}
		}
	}
	for sig, byWidth := range counts {
		st.Pct[sig] = make(map[int]float64)
		for _, width := range widths {
			if perWidthTotals[width] > 0 {
				st.Pct[sig][width] = 100 * float64(byWidth[width]) / float64(perWidthTotals[width])
			}
		}
	}
	// Order rows by the widest machine's share, like the paper.
	widest := widths[len(widths)-1]
	for sig := range st.Pct {
		st.Rows = append(st.Rows, sig)
	}
	sort.Slice(st.Rows, func(i, j int) bool {
		a, b := st.Pct[st.Rows[i]][widest], st.Pct[st.Rows[j]][widest]
		if a != b {
			return a > b
		}
		return st.Rows[i] < st.Rows[j]
	})
	if len(st.Rows) > topN {
		st.Rows = st.Rows[:topN]
	}
	st.Errs = c.errs
	return st, nil
}

func sigTableReport(r *Runner, id, title string, triples bool) (*Report, error) {
	st, err := Signatures(r, triples, 13)
	if err != nil {
		return nil, err
	}
	header := []string{"Operation Types"}
	for i := len(st.Widths) - 1; i >= 0; i-- {
		header = append(header, widthName(st.Widths[i]))
	}
	t := stats.NewTable(header...)
	for _, sig := range st.Rows {
		cells := []any{sig}
		for i := len(st.Widths) - 1; i >= 0; i-- {
			cells = append(cells, st.Pct[sig][st.Widths[i]])
		}
		t.AddRowf(cells...)
	}
	return &Report{ID: id, Title: title, Text: t.String() + errSummary(st.Errs),
		CSV: t.CSV(), Errs: st.Errs}, nil
}

// Table5 renders the most frequently collapsed pair signatures.
func Table5(r *Runner) (*Report, error) {
	return sigTableReport(r, "table5", "Collapsed 3-1 (Pair) Dependences, % of pairs (config D)", false)
}

// Table6 renders the most frequently collapsed triple signatures.
func Table6(r *Runner) (*Report, error) {
	return sigTableReport(r, "table6", "Collapsed 4-1 (Triple) Dependences, % of triples (config D)", true)
}

// --- Per-benchmark detail (beyond the paper's harmonic means) --------------------

// PerBenchRow is one benchmark's IPC under every configuration at one
// width. The paper reports only harmonic means; this exposes the
// per-benchmark detail behind them. Stalled marks cells reaped by the
// stall watchdog (Runner.StallTimeout): they render as "n/a (stalled)" to
// distinguish a hung simulation from an ordinary failure. Deadlined marks
// cells reaped by the per-cell deadline (Runner.CellTimeout): they render
// as "n/a (deadline)".
type PerBenchRow struct {
	Name      string
	IPC       map[string]float64 // config name -> IPC
	Stalled   map[string]bool    // config name -> reaped by the watchdog
	Deadlined map[string]bool    // config name -> reaped by the cell deadline
}

// PerBenchmark computes per-benchmark IPCs for all configurations at the
// given width. Failed cells report NaN and come back in the second return;
// only cancellation aborts.
func PerBenchmark(r *Runner, width int) ([]PerBenchRow, []error, error) {
	set := workloads.All()
	if err := r.Prefetch(set, core.Configs(), []int{width}); err != nil && canceled(err) {
		return nil, nil, err
	}
	var rows []PerBenchRow
	var c collector
	for _, w := range set {
		row := PerBenchRow{Name: w.Name, IPC: make(map[string]float64),
			Stalled: make(map[string]bool), Deadlined: make(map[string]bool)}
		for _, cfg := range core.Configs() {
			res, err := r.Result(w, cfg, width)
			if err != nil {
				if canceled(err) {
					return nil, nil, err
				}
				c.add(err)
				row.IPC[cfg.Name] = math.NaN()
				row.Stalled[cfg.Name] = errors.Is(err, watchdog.ErrStalled)
				row.Deadlined[cfg.Name] = errors.Is(err, ErrCellDeadline)
				continue
			}
			row.IPC[cfg.Name] = res.IPC()
		}
		rows = append(rows, row)
	}
	return rows, c.errs, nil
}

// PerBenchmarkReport renders the per-benchmark table.
func PerBenchmarkReport(r *Runner, width int) (*Report, error) {
	rows, errs, err := PerBenchmark(r, width)
	if err != nil {
		return nil, err
	}
	header := []string{"Benchmark"}
	for _, cfg := range core.Configs() {
		header = append(header, cfg.Name)
	}
	t := stats.NewTable(header...)
	for _, row := range rows {
		cells := []any{row.Name}
		for _, cfg := range core.Configs() {
			cells = append(cells, failedCell(row.IPC[cfg.Name], row.Stalled[cfg.Name], row.Deadlined[cfg.Name]))
		}
		t.AddRowf(cells...)
	}
	return &Report{
		ID:    "perbench",
		Title: fmt.Sprintf("Per-benchmark IPC at width %d (detail behind the harmonic means)", width),
		Text:  t.String() + errSummary(errs),
		CSV:   t.CSV(),
		Errs:  errs,
	}, nil
}
