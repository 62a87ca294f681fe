// Package oracle is a deliberately naive, obviously-correct reference
// implementation of the paper's scheduling model (DESIGN §5): the Wall-style
// window, greedy issue, D-speculation (two-delta stride prediction with
// 2-bit confidence) and 3-1/4-1 D-collapsing with zero-operand detection.
//
// It exists to be diffed against the optimized scheduler in internal/core
// (the differential conformance harness — see docs/testing.md). Everything
// internal/core does with rings, interning, and scratch buffers, this
// package does with plain maps, linear scans, recursion, and strings:
//
//   - issue-bandwidth accounting: a map from cycle to count (core: a
//     power-of-two ring sliding with the window frontier);
//   - the scheduling window: a plain slice with a linear minimum scan
//     (core: derived from the issue ring's per-cycle counts plus a count of
//     ties left at the last freed cycle);
//   - collapse signatures: Go strings and string-keyed maps everywhere
//     (core: interned SigIDs packed into integer keys);
//   - group choice: direct recursion over per-slot options (core: an
//     iterative flattened enumeration over fixed scratch buffers);
//   - instruction analysis and the stride predictor: re-derived from the
//     DESIGN rules in this package (analyze.go, stride.go), sharing no code
//     with internal/collapse or internal/stride.
//
// Run is O(n·window) per instruction and allocates freely; it is a test
// oracle, not a simulator anyone should benchmark.
//
// # Intentional model quirks preserved
//
// The reference model reproduces, bit for bit, two behaviours of the
// production scheduler that a clean-room reading of the paper might do
// differently; both are locked by the repository's golden tables, so the
// oracle treats them as normative:
//
//   - Self-sourcing producers: an instruction that overwrites one of its
//     own source registers (add r1, r1, r2) records *itself* as the
//     definition of that source, with its source readiness still 0,
//     because the rename table is updated before the source snapshot is
//     taken. This is a known defect, not a neutral choice: collapsing
//     through the self-snapshot looks free, so a consumer collapses
//     "through" the same instruction twice and i = i + 1 chains collapse
//     without bound. After ldi r1, 0, 1000 add r1, r1, 1 run in one cycle
//     under config C at width 2048 (IPC 1001, as 999 "arri arri arri"
//     triples); pairs-only collapsing never takes the second step, so the
//     chain stays at IPC 1.00. Snapshotting first gives IPC 3.00 and 2.00,
//     the 4-1 and 3-1 device bounds. See newDef, DESIGN.md Section 5 and
//     core's TestSelfSourcingChainKnownDefect.
//
//   - Correctly predicted loads do not commit a collapse group: when
//     speculation removes the address dependence, the address expression
//     was never collapsed, so no group statistics are recorded.
package oracle

import (
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vpred"
)

// def is the current definition of an architectural register under ideal
// renaming, plus the snapshots of the defining instruction's own collapsible
// sources (one level deep — the paper's device collapses at most three
// producers into one consumer).
type def struct {
	seq      int64 // dynamic index of the writer; -1 for initial values
	issue    int64
	ready    int64 // cycle the value becomes readable
	srcReady int64 // max readiness of the writer's own leaf operands
	counts   opCounts
	producer bool
	sig      string
	srcs     []snap // the writer's own slot sources, distinct, in operand order
}

// snap is an immutable copy of one source definition, taken when its
// consumer was scheduled.
type snap struct {
	seq      int64
	issue    int64
	ready    int64
	srcReady int64
	counts   opCounts
	producer bool
	sig      string
	uses     int // times the consumer names this source register
}

// osched is the reference scheduler state: plain maps and slices only.
type osched struct {
	cfg core.Config
	res *core.Result

	width  int
	window int

	brc  bpred.Predictor
	addr core.AddrPredictor // nil: the oracle's own naiveStride
	strd *naiveStride
	vals core.ValuePredictor
	p    core.Params

	regs [isa.NumRegs]def

	inWindow []int64          // issue cycles of in-window instructions
	issued   map[int64]int    // cycle -> instructions issued that cycle
	stores   map[uint32]int64 // word address -> cycle the store's result is done
	infos    map[uint32]*info // static analysis, cached per PC
	marked   map[int64]bool   // dynamic instructions already counted as collapsed

	pairSigs   map[string]int64
	tripleSigs map[string]int64

	barrier  int64
	seq      int64
	maxIssue int64

	valueHit  bool
	loadExtra int64
}

// Run schedules the trace under cfg and params with the reference model and
// returns the statistics. It accepts the same core.Params as core.Run;
// Width and WindowSize default like the paper's machine (width 4, window
// 2x width). Branch, Addr, Value and Cache are honored when set — pass
// fresh instances, never ones shared with a core run, or the second run
// sees a pre-trained predictor. Progress and SelfCheck are ignored: the
// oracle is its own check.
func Run(src trace.Source, cfg core.Config, params core.Params) *core.Result {
	s := newOsched(cfg, params)
	var rec trace.Record
	for src.Next(&rec) {
		s.visit(&rec)
	}
	return s.finish()
}

func newOsched(cfg core.Config, params core.Params) *osched {
	width := params.Width
	if width <= 0 {
		width = 4
	}
	window := params.WindowSize
	if window <= 0 {
		window = 2 * width
	}
	s := &osched{
		cfg:        cfg,
		p:          params,
		width:      width,
		window:     window,
		res:        &core.Result{Config: cfg, Width: width, Window: window},
		brc:        params.Branch,
		addr:       params.Addr,
		vals:       params.Value,
		issued:     map[int64]int{},
		stores:     map[uint32]int64{},
		infos:      map[uint32]*info{},
		marked:     map[int64]bool{},
		pairSigs:   map[string]int64{},
		tripleSigs: map[string]int64{},
	}
	if s.brc == nil {
		s.brc = bpred.NewPaper8KB()
	}
	if cfg.PerfectBranches {
		s.brc = bpred.NewPerfect()
	}
	if s.addr == nil {
		s.strd = &naiveStride{}
	}
	if s.vals == nil {
		s.vals = vpred.NewDefault()
	}
	for r := range s.regs {
		s.regs[r] = def{seq: -1}
	}
	return s
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// infoOf returns the static analysis of the instruction at pc. Analysis is
// per *static* instruction: every legal trace maps each PC to one
// instruction, so the first record at a PC fixes its analysis (matching the
// production scheduler's per-PC cache).
func (s *osched) infoOf(pc uint32, in *isa.Instr) *info {
	if f, ok := s.infos[pc]; ok {
		return f
	}
	f := analyze(in, s.cfg.NoShiftCollapse)
	s.infos[pc] = f
	return f
}

// windowEntry models the always-full window: the consumer enters at cycle 1
// if there is room, otherwise one cycle after the earliest in-window issue
// (that issue frees the slot). Naive form: linear scan for the minimum.
func (s *osched) windowEntry() int64 {
	if len(s.inWindow) < s.window {
		return 1
	}
	minIdx := 0
	for i, v := range s.inWindow {
		if v < s.inWindow[minIdx] {
			minIdx = i
		}
	}
	min := s.inWindow[minIdx]
	s.inWindow = append(s.inWindow[:minIdx], s.inWindow[minIdx+1:]...)
	return min + 1
}

// slotted returns the first cycle >= t with spare issue bandwidth and
// consumes one slot there. Naive form: a map from cycle to count.
func (s *osched) slotted(t int64) int64 {
	if t < 1 {
		t = 1
	}
	for s.issued[t] >= s.width {
		t++
	}
	s.issued[t]++
	if t > s.maxIssue {
		s.maxIssue = t
	}
	return t
}

// group is one resolved way to obtain the consumer's collapsible operands:
// the achieved readiness plus the collapsed producers (empty for plain
// scheduling).
type group struct {
	ready     int64
	counts    opCounts
	producers []snap
}

func (s *osched) visit(rec *trace.Record) {
	seq := s.seq
	s.seq++
	s.res.Instructions++
	s.valueHit = false
	s.loadExtra = 0

	in := &rec.Instr
	inf := s.infoOf(rec.PC, in)

	entry := s.windowEntry()
	lower := maxi(entry, s.barrier)

	collapsing := s.cfg.Collapse && inf.consumer

	// Plain operand readiness: every read that the collapse machinery does
	// not handle. A store's data operand (listed first by Reads) is always
	// a plain dependence — only the address expression collapses.
	var plainReady int64
	var reads []uint8
	reads = in.Reads(reads)
	for i, r := range reads {
		if r == isa.R0 {
			continue
		}
		storeData := in.Op == isa.St && i == 0
		if collapsing && !storeData && inf.usesOf(r) > 0 {
			continue // handled as a collapsible slot
		}
		plainReady = maxi(plainReady, s.regs[r].ready)
	}

	var g group
	if collapsing {
		g = s.chooseGroup(inf, seq, entry)
	} else {
		for _, r := range inf.slots {
			g.ready = maxi(g.ready, s.regs[r].ready)
		}
	}

	var issue int64
	if in.Op == isa.Ld {
		issue = s.scheduleLoad(rec, inf, seq, lower, plainReady, &g)
	} else {
		issue = s.slotted(maxi(lower, maxi(plainReady, g.ready)))
		if in.Op == isa.St {
			s.stores[rec.Addr] = issue + int64(isa.Latency(in.Op))
			if s.p.Cache != nil {
				s.p.Cache.Access(rec.Addr) // write-allocate, no extra latency
			}
		}
		s.commitGroup(inf, seq, &g)
	}

	if in.IsCondBranch() {
		s.res.CondBranches++
		if p, ok := s.brc.(*bpred.Perfect); ok {
			p.SetOutcome(rec.Taken)
		}
		pred := s.brc.Predict(rec.PC)
		s.brc.Update(rec.PC, rec.Taken)
		if pred != rec.Taken {
			s.res.Mispredicts++
			// No later instruction may issue at or before the mispredicted
			// branch's cycle.
			s.barrier = maxi(s.barrier, issue+1)
		}
	}

	s.inWindow = append(s.inWindow, issue)

	if w := in.Writes(); w >= 0 {
		s.newDef(uint8(w), seq, issue, in, inf)
	}
}

// newDef installs the new definition of register w under ideal renaming and
// snapshots the writer's own collapsible sources one level deep.
//
// Aliasing rule (see the package comment): the rename table entry is
// replaced *before* the source snapshots are taken, so a writer that reads
// its own destination register snapshots the new definition — itself —
// with whatever srcReady has accumulated so far. Collapsing through that
// snapshot therefore looks free, exactly as in the production scheduler;
// this is the known self-sourcing defect the oracle reproduces until both
// are fixed together.
func (s *osched) newDef(w uint8, seq, issue int64, in *isa.Instr, inf *info) {
	d := &s.regs[w]
	d.seq = seq
	d.issue = issue
	d.ready = issue + int64(isa.Latency(in.Op)) + s.loadExtra
	if s.valueHit {
		d.ready = 0 // predicted value: available immediately (Config F)
	}
	d.counts = inf.counts
	d.producer = inf.producer
	d.sig = inf.sig
	d.srcs = nil
	d.srcReady = 0
	if inf.producer {
		var seen []uint8
		for _, r := range inf.slots {
			dup := false
			for _, sr := range seen {
				if sr == r {
					dup = true
					break
				}
			}
			if dup || len(seen) >= 2 {
				continue
			}
			seen = append(seen, r)
			src := &s.regs[r] // may alias d itself (self-sourcing rule)
			d.srcs = append(d.srcs, snap{
				seq:      src.seq,
				issue:    src.issue,
				ready:    src.ready,
				srcReady: src.srcReady,
				counts:   src.counts,
				producer: src.producer,
				sig:      src.sig,
				uses:     inf.usesOf(r),
			})
			d.srcReady = maxi(d.srcReady, src.ready)
		}
	}
}

// chooseGroup enumerates every legal way to collapse the consumer's operand
// expression and picks the one that minimizes operand readiness, preferring
// fewer collapsed producers on ties (first option considered wins remaining
// ties). Naive form: direct recursion over the consumer's distinct slot
// registers.
func (s *osched) chooseGroup(inf *info, seq, entry int64) group {
	// Distinct slot registers with multiplicities, in operand order.
	var regsd []uint8
	var mult []int
	for _, r := range inf.slots {
		found := false
		for i, rr := range regsd {
			if rr == r {
				mult[i]++
				found = true
				break
			}
		}
		if !found && len(regsd) < 2 {
			regsd = append(regsd, r)
			mult = append(mult, 1)
		}
	}

	options := make([][]slotOption, len(regsd))
	for i, r := range regsd {
		options[i] = s.slotOptions(r, seq, entry)
	}

	best := group{ready: -1}
	var walk func(i int, ready int64, counts opCounts, prods []snap)
	walk = func(i int, ready int64, counts opCounts, prods []snap) {
		if i == len(regsd) {
			s.consider(&best, inf, ready, counts, prods)
			return
		}
		for _, o := range options[i] {
			c := counts
			if o.collapsed {
				c = c.replace(mult[i], o.unit)
			}
			if len(prods)+len(o.producers) > 3 {
				continue // the 4-1 device holds at most three producers
			}
			walk(i+1, maxi(ready, o.ready), c, append(prods, o.producers...))
		}
	}
	walk(0, 0, inf.counts, nil)

	if best.ready < 0 {
		// No feasible option at all (cannot happen: plain is always legal),
		// fall back to plain readiness.
		for _, r := range inf.slots {
			best.ready = maxi(best.ready, s.regs[r].ready)
		}
		best.producers = nil
		if best.ready < 0 {
			best.ready = 0
		}
	}
	return best
}

// consider applies the feasibility rules to one fully chosen combination
// and keeps it when strictly better than the current best.
func (s *osched) consider(best *group, inf *info, ready int64, counts opCounts, prods []snap) {
	nprod := len(prods)
	if s.cfg.PairsOnly && nprod > 1 {
		return
	}
	if s.cfg.NoZeroDetect && counts.raw() > 4 {
		return
	}
	if _, ok := fit(counts); !ok && nprod > 0 {
		return
	}
	if !(best.ready < 0 || ready < best.ready || (ready == best.ready && nprod < len(best.producers))) {
		return
	}
	best.ready = ready
	best.counts = counts
	best.producers = append([]snap(nil), prods...)
}

// slotOption is one way to obtain the operand in one slot register.
type slotOption struct {
	ready     int64
	unit      opCounts // per-use operand contribution when collapsed
	collapsed bool
	producers []snap
}

// slotOptions lists the ways to obtain the operand in register r, in the
// normative order: plain first, the pair collapse second, then the deeper
// combinations in source-mask order.
func (s *osched) slotOptions(r uint8, seq, entry int64) []slotOption {
	d := &s.regs[r]
	opts := []slotOption{{ready: d.ready}}

	if !d.producer || !s.coresident(d.seq, d.issue, seq, entry) {
		return opts
	}
	if s.cfg.ConsecutiveOnly && seq-d.seq != 1 {
		return opts
	}

	top := snap{
		seq: d.seq, issue: d.issue, ready: d.ready,
		srcReady: d.srcReady, counts: d.counts, producer: d.producer, sig: d.sig,
	}

	// Pair: wait for the producer's own sources instead of its result.
	opts = append(opts, slotOption{
		ready: d.srcReady, unit: d.counts, collapsed: true, producers: []snap{top},
	})
	if s.cfg.PairsOnly {
		return opts
	}

	// Deeper: also collapse through one or both of the producer's own
	// producers (chain and tree triples, and the zero-detection quads).
	for mask := 1; mask < 1<<len(d.srcs); mask++ {
		o := slotOption{unit: d.counts, collapsed: true, producers: []snap{top}}
		feasible := true
		for k := range d.srcs {
			src := &d.srcs[k]
			if mask&(1<<k) == 0 {
				o.ready = maxi(o.ready, src.ready)
				continue
			}
			if !src.producer || !s.coresident(src.seq, src.issue, seq, entry) {
				feasible = false
				break
			}
			if s.cfg.ConsecutiveOnly {
				feasible = false
				break
			}
			o.ready = maxi(o.ready, src.srcReady)
			// A double use duplicates the sub-expression (Rc = Rb + Rb).
			o.unit = o.unit.replace(src.uses, src.counts)
			o.producers = append(o.producers, *src)
		}
		if feasible {
			opts = append(opts, o)
		}
	}
	return opts
}

// coresident reports whether the producer and the consumer were ever in the
// scheduling window together: the producer must not have issued before the
// consumer entered, and their dynamic distance must fit the window.
func (s *osched) coresident(pseq, pissue, cseq, entry int64) bool {
	if pseq < 0 {
		return false
	}
	if cseq-pseq >= int64(s.window) {
		return false
	}
	return pissue >= entry
}

// scheduleLoad schedules one load under the D-speculation rules.
func (s *osched) scheduleLoad(rec *trace.Record, inf *info, seq, lower, plainReady int64, g *group) int64 {
	s.res.Loads++
	addrReady := maxi(plainReady, g.ready)
	memDep := s.stores[rec.Addr]

	if s.p.Cache != nil {
		if !s.p.Cache.Access(rec.Addr) {
			s.loadExtra = int64(s.p.Cache.Config().MissLatency)
		}
	}

	// Configuration F: a confidently and correctly predicted load *value*
	// removes the load-use dependence entirely; the load still issues to
	// verify.
	if s.cfg.LoadValuePred {
		vp := s.vals.Lookup(rec.PC)
		s.vals.Update(rec.PC, rec.Value)
		switch {
		case !vp.Valid || !vp.Confident:
			s.res.ValueNotPred++
		case vp.Value == rec.Value:
			s.res.ValuePredCorrect++
			s.valueHit = true
		default:
			s.res.ValuePredIncorrect++
		}
	}

	speculative := s.cfg.LoadSpec || s.cfg.IdealLoadSpec

	// A ready load computes its address by the time it could issue anyway;
	// speculation has nothing to gain.
	if !speculative || addrReady <= lower {
		if speculative {
			s.res.LoadReady++
			s.addrUpdate(rec.PC, rec.Addr)
		}
		issue := s.slotted(maxi(lower, maxi(addrReady, memDep)))
		s.commitGroup(inf, seq, g)
		return issue
	}

	if s.cfg.IdealLoadSpec {
		s.res.LoadPredCorrect++
		s.addrUpdate(rec.PC, rec.Addr)
		return s.slotted(maxi(lower, memDep)) // address dependence removed
	}

	pred := s.addrLookup(rec.PC)
	s.addrUpdate(rec.PC, rec.Addr)
	switch {
	case !pred.valid || !pred.confident:
		s.res.LoadNotPred++
	case pred.addr == rec.Addr:
		s.res.LoadPredCorrect++
		// The speculative issue used the right address: dependents never
		// wait, and no collapse group is committed (the address expression
		// was never collapsed).
		return s.slotted(maxi(lower, memDep))
	default:
		s.res.LoadPredIncorrect++
		// Wrong address: dependents wait for the correct-address load,
		// which times exactly like the not-predicted case below.
	}
	issue := s.slotted(maxi(lower, maxi(addrReady, memDep)))
	s.commitGroup(inf, seq, g)
	return issue
}

func (s *osched) addrLookup(pc uint32) naivePrediction {
	if s.addr != nil {
		p := s.addr.Lookup(pc)
		return naivePrediction{addr: p.Addr, confident: p.Confident, valid: p.Valid}
	}
	return s.strd.lookup(pc)
}

func (s *osched) addrUpdate(pc uint32, addr uint32) {
	if s.addr != nil {
		s.addr.Update(pc, addr)
		return
	}
	s.strd.update(pc, addr)
}

// commitGroup records the statistics of a chosen collapse group: category,
// group size, pairwise distances, distinct participating instructions, and
// the pair/triple signature tallies, all with plain strings and maps.
func (s *osched) commitGroup(inf *info, seq int64, g *group) {
	if len(g.producers) == 0 {
		return
	}
	cat, ok := fit(g.counts)
	if !ok {
		return
	}
	s.res.Groups[cat]++
	size := len(g.producers) + 1
	if size > 4 {
		size = 4
	}
	s.res.GroupsBySize[size]++

	s.mark(seq)
	for i := range g.producers {
		p := &g.producers[i]
		s.mark(p.seq)
		dist := seq - p.seq
		s.res.DistSum += dist
		s.res.DistCount++
		b := int(dist) - 1
		if b >= core.DistBuckets {
			b = core.DistBuckets - 1
		}
		s.res.DistHist[b]++
	}

	switch len(g.producers) {
	case 1:
		s.pairSigs[g.producers[0].sig+" "+inf.sig]++
	case 2:
		a, b := &g.producers[0], &g.producers[1]
		if a.seq > b.seq {
			a, b = b, a // deepest (earliest) producer first, Table 6 order
		}
		s.tripleSigs[a.sig+" "+b.sig+" "+inf.sig]++
	}
}

func (s *osched) mark(seq int64) {
	if !s.marked[seq] {
		s.marked[seq] = true
		s.res.CollapsedInstrs++
	}
}

func (s *osched) finish() *core.Result {
	s.res.Cycles = s.maxIssue
	s.res.PairSigs = make(map[string]int64, len(s.pairSigs))
	for k, n := range s.pairSigs {
		s.res.PairSigs[k] = n
	}
	s.res.TripleSigs = make(map[string]int64, len(s.tripleSigs))
	for k, n := range s.tripleSigs {
		s.res.TripleSigs[k] = n
	}
	if s.p.Cache != nil {
		s.res.CacheAccesses = s.p.Cache.Accesses
		s.res.CacheMisses = s.p.Cache.Misses
	}
	return s.res
}
