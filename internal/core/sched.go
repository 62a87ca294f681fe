package core

import (
	"context"
	"fmt"

	"repro/internal/collapse"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vpred"
)

// Run schedules the trace under cfg and params and returns the statistics.
//
// The scheduling model (DESIGN.md Section 5): instructions are visited in
// dynamic order; instruction i enters the window one cycle after the issue
// that freed its slot; it issues at the first cycle with a free issue slot
// at or after max(entry, misprediction barrier, operand readiness, memory
// dependence). A result issued at cycle t with latency L is readable by
// instructions issuing at cycle >= t+L.
//
// Run is a thin wrapper over RunChecked that discards the error for
// callers that control their trace end-to-end (in-memory buffers the VM
// just produced). Anything consuming external input — trace files, network
// streams — must use RunChecked: a truncated or corrupt source otherwise
// yields a plausible-but-wrong partial Result.
func Run(src trace.Source, cfg Config, params Params) *Result {
	res, _ := RunChecked(context.Background(), src, cfg, params)
	return res
}

// srcSnap is a snapshot of one source operand's defining instruction, taken
// when the consumer of that operand was scheduled. It carries enough to
// collapse through the producer one level deeper (its own sources'
// readiness) without chasing pointers into state that later instructions
// overwrite. Signatures travel as interned collapse.SigIDs, never strings,
// so snapshots stay pointer-free and copies stay cheap.
type srcSnap struct {
	seq      int64 // dynamic index of the producer; -1 for initial values
	issue    int64
	ready    int64 // cycle the produced value is readable
	srcReady int64 // max readiness of the producer's own leaf operands
	counts   collapse.Counts
	producer bool // producer's class is collapsible-through
	sig      collapse.SigID
	uses     int // times the consumer names this source register (Rb+Rb: 2)
}

// def is the current definition of an architectural register under ideal
// renaming: the youngest earlier writer.
type def struct {
	seq      int64
	issue    int64
	ready    int64
	srcReady int64
	counts   collapse.Counts
	producer bool
	sig      collapse.SigID
	srcs     [2]srcSnap
	nsrcs    int
}

// prodRef names a producer collapsed into a group: all commitGroup needs
// of it is its dynamic index and its interned signature.
type prodRef struct {
	seq int64
	sig collapse.SigID
}

// slotOption is one way to obtain a consumer operand: directly (producers
// empty) or by collapsing through up to three instructions.
type slotOption struct {
	ready     int64
	unit      collapse.Counts // per-use operand contribution when collapsed
	collapsed bool            // false: plain use of the produced value
	producers [3]prodRef
	nprod     int
}

// maxSlotOptions bounds the ways to obtain one operand: plain, pair-through,
// and one deeper option per non-empty subset of the producer's (at most
// two) own sources.
const maxSlotOptions = 5

// through starts o as a collapse through producer top alone: top's own
// leaf operands contribute unit, and the option is ready at ready.
func (o *slotOption) through(top prodRef, unit collapse.Counts, ready int64) {
	o.ready, o.unit, o.collapsed = ready, unit, true
	o.producers[0], o.nprod = top, 1
}

// sched is one cell's back end: the window, issue ring, registers,
// collapse state and statistics of one (configuration, machine) pair,
// scheduling the records its bank's front end decodes.
type sched struct {
	cfg Config
	p   Params
	res *Result

	vals ValuePredictor

	// variant selects the static record's collapse analysis: 1 when
	// shifts are removed from the collapsible set (NoShiftCollapse).
	variant int

	regs [isa.NumRegs]def

	// Issue bandwidth accounting per cycle: a ring of per-cycle counts
	// sliding with the window entry frontier (bounded memory, no hashing).
	// The ring also holds the window: slots free in non-decreasing issue
	// order and the last freed cycle is base-1, so every instruction issued
	// at or above base is still in the window. The window is those ring
	// counts over [base, maxIssue] plus ties instructions issued at base-1.
	issue issueRing
	ties  int64

	// Misprediction barrier: no later instruction may issue at or before
	// the mispredicted branch's issue cycle.
	barrier int64

	// Perfect memory disambiguation: for each store address the front end
	// interned, the cycle after the latest prior store to it has issued.
	stores []int64

	// Collapse participation ring bitmap (distinct-instruction counting).
	ring     []bool
	ringMask int64

	seq      int64
	maxIssue int64

	// The next record counts at which the run loop sweeps the invariants
	// and emits a heartbeat.
	nextCheck, nextProgress int64

	// valueHit marks the in-flight load whose value was predicted
	// correctly: its consumers see the value immediately. Reset inline at
	// the top of every visit (no per-visit defer on the hot path).
	valueHit bool

	// loadExtra is the in-flight load's cache-miss penalty in cycles.
	loadExtra int64

	// Collapse-signature frequency tables, keyed by packed interned-SigID
	// tuples. Materialized into Result.PairSigs/TripleSigs (string keys,
	// byte-identical to the old concatenations) once, in finish — the hot
	// loop never builds a string.
	pairIDs   map[uint32]int64
	tripleIDs map[uint64]int64

	// Scratch buffers reused across visits to keep the hot loop
	// allocation-free.
	optBuf [2][maxSlotOptions]slotOption
	group  groupChoice

	// err carries a failure raised mid-visit (e.g. an injected cache
	// fault or a corrupt window); the run loop surfaces it after the visit
	// completes.
	err error
}

func newSched(cfg Config, params Params) *sched {
	params = params.withDefaults()
	ringSize := int64(4 * params.WindowSize)
	if ringSize < 16 {
		ringSize = 16
	}
	ringSize = roundUpPow2(ringSize)
	s := &sched{
		cfg:          cfg,
		p:            params,
		res:          &Result{Config: cfg, Width: params.Width, Window: params.WindowSize},
		vals:         params.Value,
		issue:        newIssueRing(ringSize),
		ring:         make([]bool, ringSize),
		ringMask:     ringSize - 1,
		nextCheck:    int64(params.SelfCheckEvery),
		nextProgress: params.ProgressEvery,
		pairIDs:      make(map[uint32]int64, 64),
		tripleIDs:    make(map[uint64]int64, 64),
	}
	if cfg.NoShiftCollapse {
		s.variant = 1
	}
	if cfg.LoadValuePred && s.vals == nil {
		s.vals = vpred.NewDefault()
	}
	for i := range s.regs {
		s.regs[i] = def{seq: -1}
	}
	return s
}

// speculative reports whether the configuration issues loads on predicted
// addresses, and so consults the load-address predictor.
func (c Config) speculative() bool { return c.LoadSpec || c.IdealLoadSpec }

// --- window entry --------------------------------------------------------

// enter returns the cycle instruction seq enters the window and slides the
// issue ring up to it. The window is kept full: once it holds WindowSize
// instructions, a slot frees one cycle after the earliest in-window issue.
// Nothing can issue below the entry frontier anymore, and the frontier is
// monotone (every issue is at or after its own entry), so the ring's base
// follows it.
func (s *sched) enter(seq int64) int64 {
	if seq < int64(s.p.WindowSize) {
		return 1
	}
	entry := s.free() + 1
	s.issue.advance(entry)
	return entry
}

// free releases the window slot of the earliest-issued in-window
// instruction and returns its issue cycle. Ties left at the last freed
// cycle (base-1) go first; then the first non-empty ring cycle at or above
// base, whose other instructions become the new ties once advance slides
// base past it. The cycles skipped are exactly those advance clears next,
// so the scan is amortized O(1). A full window always holds an issued
// instruction at or below maxIssue: running past it means the ring or the
// tie count is corrupt, reported as a window-occupancy violation instead
// of spinning.
func (s *sched) free() int64 {
	if s.ties > 0 {
		s.ties--
		return s.issue.base - 1
	}
	for t := s.issue.base; t <= s.maxIssue; t++ {
		if n := s.issue.counts[t&s.issue.mask]; n > 0 {
			s.ties = int64(n) - 1
			return t
		}
	}
	s.err = &InvariantError{
		Invariant: "window-occupancy",
		Cycle:     s.maxIssue,
		Seq:       s.seq,
		Detail:    fmt.Sprintf("full window of %d has no instruction issued in [%d, %d]", s.p.WindowSize, s.issue.base-1, s.maxIssue),
	}
	return s.maxIssue
}

// slotted returns the first cycle >= t with spare issue bandwidth and
// consumes one slot there. Counts live in the sliding issue ring; every
// query is at or above the window entry frontier (the ring's base), so the
// probe is one mask and one compare per cycle — no map hashing.
func (s *sched) slotted(t int64) int64 {
	if t < 1 {
		t = 1
	}
	w := int32(s.p.Width)
	for {
		s.issue.ensure(t, s.maxIssue)
		idx := t & s.issue.mask
		if s.issue.counts[idx] < w {
			s.issue.counts[idx]++
			if t > s.maxIssue {
				s.maxIssue = t
			}
			return t
		}
		t++
	}
}

// --- per-instruction scheduling ------------------------------------------

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (s *sched) visit(d *decoded) {
	seq := s.seq
	s.seq++
	s.ring[seq&s.ringMask] = false
	s.res.Instructions++

	// Reset per-visit load state inline (the old per-instruction defer cost
	// a deferred call on every dynamic instruction).
	s.valueHit = false
	s.loadExtra = 0

	st := d.st
	inf := &st.info[s.variant]

	entry := s.enter(seq)
	lower := max64(entry, s.barrier)

	collapsing := s.cfg.Collapse && inf.Consumer

	// Plain (non-collapsible) operand readiness; a collapsing consumer's
	// slot registers are handled by the slot machinery instead.
	reads := st.reads[:st.nreads]
	if collapsing {
		reads = st.plain[:st.nplain]
	}
	var plainReady int64
	for _, r := range reads {
		plainReady = max64(plainReady, s.regs[r].ready)
	}

	// Collapsible operand readiness (with the chosen collapse group).
	group := &s.group
	if collapsing {
		s.chooseGroup(group, st, inf, seq, entry)
	} else {
		s.plainGroup(group, inf)
	}

	var issue int64
	if st.load {
		issue = s.scheduleLoad(d, inf, seq, lower, plainReady, group)
	} else {
		issue = s.slotted(max64(lower, max64(plainReady, group.ready)))
		if st.store {
			s.stores[d.addrID] = issue + st.lat
			if s.p.Cache != nil {
				s.p.Cache.Access(d.addr) // write-allocate; no extra latency modeled
			}
		}
		s.commitGroup(inf, seq, group)
	}

	// Conditional branches: realistic prediction; a misprediction bars all
	// later instructions from issuing at or before the branch's cycle.
	if st.cond {
		s.res.CondBranches++
		if d.mispredict && !s.cfg.PerfectBranches {
			s.res.Mispredicts++
			s.barrier = max64(s.barrier, issue+1)
		}
	}

	// Record the new register definition. The sources are snapshotted
	// after the destination is overwritten, so an instruction that reads
	// its own destination (add r1, r1, 1) snapshots itself; see DESIGN.md
	// Section 5 and TestSelfSourcingChainKnownDefect.
	if w := st.writes; w >= 0 {
		dst := &s.regs[w]
		dst.seq = seq
		dst.issue = issue
		dst.ready = issue + st.lat + s.loadExtra
		if s.valueHit {
			// Value prediction removed the load-use dependence: consumers
			// read the predicted value without waiting for the load.
			dst.ready = 0
		}
		dst.counts = inf.Counts
		dst.producer = inf.Producer
		dst.sig = inf.SigID
		dst.nsrcs = 0
		dst.srcReady = 0
		if inf.Producer {
			for k := 0; k < st.nslots; k++ {
				src := &s.regs[st.slots[k]]
				dst.srcs[k] = srcSnap{
					seq:      src.seq,
					issue:    src.issue,
					ready:    src.ready,
					srcReady: src.srcReady,
					counts:   src.counts,
					producer: src.producer,
					sig:      src.sig,
					uses:     st.uses[k],
				}
				dst.srcReady = max64(dst.srcReady, src.ready)
				dst.nsrcs++
			}
		}
	}
}

// --- loads ----------------------------------------------------------------

func (s *sched) scheduleLoad(d *decoded, inf *collapse.Info, seq, lower, plainReady int64, group *groupChoice) int64 {
	s.res.Loads++
	addrReady := max64(plainReady, group.ready)
	var memDep int64
	if d.addrID >= 0 {
		memDep = s.stores[d.addrID]
	}

	// Realistic memory: a load that misses in the cache delivers its data
	// late. The access happens once, with the correct address (the paper
	// accounts the verification access only).
	if s.p.Cache != nil {
		if faultinject.Enabled() {
			if err := faultinject.Check(faultinject.PointCacheSim); err != nil {
				s.err = fmt.Errorf("core: cache simulation at instruction %d: %w", seq, err)
			}
		}
		if !s.p.Cache.Access(d.addr) {
			s.loadExtra = int64(s.p.Cache.Config().MissLatency)
		}
	}

	// Value prediction (configuration F): a confidently and correctly
	// predicted load value removes the load-use dependence entirely — the
	// load still issues below to verify the prediction, but its consumers
	// do not wait for it.
	if s.cfg.LoadValuePred {
		vp := s.vals.Lookup(d.pc)
		s.vals.Update(d.pc, d.value)
		switch {
		case !vp.Valid || !vp.Confident:
			s.res.ValueNotPred++
		case vp.Value == d.value:
			s.res.ValuePredCorrect++
			s.valueHit = true
		default:
			s.res.ValuePredIncorrect++
		}
	}

	speculative := s.cfg.speculative()

	// A "ready" load computes its address early enough that speculation is
	// pointless: its address is available by the time it could issue anyway.
	ready := addrReady <= lower
	if !speculative || ready {
		if speculative {
			s.res.LoadReady++
		}
		issue := s.slotted(max64(lower, max64(addrReady, memDep)))
		s.commitGroup(inf, seq, group)
		return issue
	}

	if s.cfg.IdealLoadSpec {
		s.res.LoadPredCorrect++
		return s.slotted(max64(lower, memDep)) // address dependence removed
	}

	// The front end looked the shared stride table up before training it
	// with this load, exactly as a private table would have been.
	pred := d.pred
	switch {
	case !pred.Valid || !pred.Confident:
		s.res.LoadNotPred++
	case pred.Addr == d.addr:
		s.res.LoadPredCorrect++
		return s.slotted(max64(lower, memDep))
	default:
		s.res.LoadPredIncorrect++
		// The speculative issue fetched a wrong address; dependents wait
		// for the correct-address load, which issues exactly like the base
		// case (the paper accounts resources for verification only), so the
		// timing below is shared with the not-predicted path.
	}
	issue := s.slotted(max64(lower, max64(addrReady, memDep)))
	s.commitGroup(inf, seq, group)
	return issue
}

// --- collapsing ------------------------------------------------------------

// groupChoice is the outcome of operand scheduling for a consumer: the
// achieved operand readiness plus the collapse group (if any) that achieved
// it.
type groupChoice struct {
	ready     int64
	counts    collapse.Counts
	producers [3]prodRef
	nprod     int
}

// plainGroup fills g with the operand readiness without collapsing.
func (s *sched) plainGroup(g *groupChoice, inf *collapse.Info) {
	var ready int64
	for _, r := range inf.Slots {
		ready = max64(ready, s.regs[r].ready)
	}
	*g = groupChoice{ready: ready}
}

// chooseGroup enumerates the collapse options for the consumer's slots and
// picks the combination that minimizes operand readiness, preferring fewer
// collapsed producers on ties. Groups may span up to four instructions
// (consumer + three producers) when the expression fits the 4-1 device.
//
// A consumer has at most two distinct slot registers, so the enumeration
// is a flat (at most) double loop over the per-slot option lists — the old
// recursive closure allocated itself and its captures on every visit. The
// iteration order (slot 0 outer, slot 1 inner, options in slotOptions
// order) matches the recursion exactly, preserving tie-breaks bit for bit.
// The choice is written into g (the scheduler's scratch group), so no
// group travels by value.
func (s *sched) chooseGroup(g *groupChoice, st *static, inf *collapse.Info, seq, entry int64) {
	// Distinct slot registers with multiplicities, from the static record.
	nslots, slotMult := st.nslots, &st.uses
	var opts [2][]slotOption
	for i := 0; i < nslots; i++ {
		opts[i] = s.optBuf[i][:s.slotOptions(&s.optBuf[i], st.slots[i], seq, entry)]
	}

	g.ready, g.nprod = -1, 0
	switch nslots {
	case 0:
		s.consider(g, 0, inf.Counts, nil, nil)
	case 1:
		for i := range opts[0] {
			o := &opts[0][i]
			c := inf.Counts
			if o.collapsed {
				c = c.ReplaceUses(slotMult[0], o.unit)
			}
			s.consider(g, o.ready, c, o, nil)
		}
	default:
		for i := range opts[0] {
			o0 := &opts[0][i]
			c0 := inf.Counts
			if o0.collapsed {
				c0 = c0.ReplaceUses(slotMult[0], o0.unit)
			}
			for j := range opts[1] {
				o1 := &opts[1][j]
				if o0.nprod+o1.nprod > 3 {
					continue
				}
				c := c0
				if o1.collapsed {
					c = c.ReplaceUses(slotMult[1], o1.unit)
				}
				s.consider(g, max64(o0.ready, o1.ready), c, o0, o1)
			}
		}
	}
	if g.ready < 0 {
		s.plainGroup(g, inf)
	}
}

// consider evaluates one fully chosen option combination (o1 may be nil,
// and both are nil for slotless consumers) against the feasibility rules
// and the current best, replacing best when strictly better. It mirrors
// the leaf of the old recursion: same filters, same strict-improvement
// comparison, same producer order (slot 0's producers before slot 1's).
func (s *sched) consider(best *groupChoice, ready int64, counts collapse.Counts, o0, o1 *slotOption) {
	nprod := 0
	if o0 != nil {
		nprod += o0.nprod
	}
	if o1 != nil {
		nprod += o1.nprod
	}
	if s.cfg.PairsOnly && nprod > 1 {
		return
	}
	if s.cfg.NoZeroDetect && counts.Raw() > collapse.MaxInputs {
		return
	}
	if _, ok := collapse.Fit(counts); !ok && nprod > 0 {
		return
	}
	if !(best.ready < 0 || ready < best.ready || (ready == best.ready && nprod < best.nprod)) {
		return
	}
	best.ready = ready
	best.counts = counts
	n := 0
	if o0 != nil {
		n += copy(best.producers[n:], o0.producers[:o0.nprod])
	}
	if o1 != nil {
		n += copy(best.producers[n:], o1.producers[:o1.nprod])
	}
	best.nprod = n
}

// slotOptions fills opts with the ways to obtain the operand in register r
// and returns how many there are. Options are written in place, field by
// field; producers past an option's nprod are stale and never read.
func (s *sched) slotOptions(opts *[maxSlotOptions]slotOption, r uint8, seq, entry int64) int {
	d := &s.regs[r]
	plain := &opts[0]
	plain.ready, plain.collapsed, plain.nprod = d.ready, false, 0

	if !d.producer || !s.coresident(d.seq, d.issue, seq, entry) {
		return 1
	}
	if s.cfg.ConsecutiveOnly && seq-d.seq != 1 {
		return 1
	}
	top := prodRef{seq: d.seq, sig: d.sig}

	// Pair-through: wait for the producer's own sources instead.
	opts[1].through(top, d.counts, d.srcReady)
	n := 2

	if s.cfg.PairsOnly {
		return n
	}

	// Deeper: additionally collapse through one or both of the producer's
	// own producers (chain / tree triples and the zero-detection quads).
	for mask := 1; mask < 1<<d.nsrcs; mask++ {
		o := &opts[n]
		o.through(top, d.counts, 0)
		feasible := true
		for k := 0; k < d.nsrcs; k++ {
			src := &d.srcs[k]
			if mask&(1<<k) == 0 {
				o.ready = max64(o.ready, src.ready)
				continue
			}
			if !src.producer || !s.coresident(src.seq, src.issue, seq, entry) || s.cfg.ConsecutiveOnly {
				feasible = false
				break
			}
			o.ready = max64(o.ready, src.srcReady)
			// Replace every use of this source in the producer's counts
			// (a double use duplicates the sub-expression, as in the
			// paper's Rc = Rb + Rb example).
			o.unit = o.unit.ReplaceUses(src.uses, src.counts)
			o.producers[o.nprod] = prodRef{seq: src.seq, sig: src.sig}
			o.nprod++
		}
		if feasible {
			n++
		}
	}
	return n
}

// coresident reports whether the producer at pseq (issuing at pissue) and
// the consumer entering the window at entry were in the window together.
// A producer that issued before the consumer's entry has left the window;
// distances beyond the window capacity are structurally impossible.
func (s *sched) coresident(pseq, pissue, cseq, entry int64) bool {
	if pseq < 0 {
		return false
	}
	if cseq-pseq >= int64(s.p.WindowSize) {
		return false
	}
	return pissue >= entry
}

// commitGroup records the statistics for a chosen collapse group. Groups
// with no producers (plain scheduling) record nothing. Signature tallies
// go into the packed-SigID tables; no strings are built here.
func (s *sched) commitGroup(inf *collapse.Info, seq int64, g *groupChoice) {
	if g.nprod == 0 {
		return
	}
	cat, ok := collapse.Fit(g.counts)
	if !ok {
		return
	}
	s.res.Groups[cat]++
	s.res.GroupsBySize[min(g.nprod+1, 4)]++

	s.mark(seq)
	for i := 0; i < g.nprod; i++ {
		p := &g.producers[i]
		s.mark(p.seq)
		dist := seq - p.seq
		s.res.DistSum += dist
		s.res.DistCount++
		b := int(dist) - 1
		if b >= DistBuckets {
			b = DistBuckets - 1
		}
		s.res.DistHist[b]++
	}

	switch g.nprod {
	case 1:
		s.pairIDs[collapse.PackPair(g.producers[0].sig, inf.SigID)]++
	case 2:
		a, b := &g.producers[0], &g.producers[1]
		if a.seq > b.seq {
			a, b = b, a
		}
		s.tripleIDs[collapse.PackTriple(a.sig, b.sig, inf.SigID)]++
	}
}

func (s *sched) mark(seq int64) {
	idx := seq & s.ringMask
	if !s.ring[idx] {
		s.ring[idx] = true
		s.res.CollapsedInstrs++
	}
}

// finish seals the Result: it materializes the packed-SigID frequency
// tables into the string-keyed PairSigs/TripleSigs maps (the only place
// signature strings are built — see the interning invariant in
// internal/collapse) and copies the cache counters. The rendered keys are
// byte-identical to the old per-group concatenations.
func (s *sched) finish() *Result {
	s.res.Cycles = s.maxIssue
	s.res.PairSigs = make(map[string]int64, len(s.pairIDs))
	for k, n := range s.pairIDs {
		s.res.PairSigs[collapse.PairIDString(k)] = n
	}
	s.res.TripleSigs = make(map[string]int64, len(s.tripleIDs))
	for k, n := range s.tripleIDs {
		s.res.TripleSigs[collapse.TripleIDString(k)] = n
	}
	if s.p.Cache != nil {
		s.res.CacheAccesses = s.p.Cache.Accesses
		s.res.CacheMisses = s.p.Cache.Misses
	}
	return s.res
}
