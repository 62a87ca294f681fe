package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collapse"
	"repro/internal/isa"
	"repro/internal/trace"
)

// tb builds hand-crafted traces with auto-incrementing PCs.
type tb struct {
	buf trace.Buffer
	pc  uint32
}

func (b *tb) raw(pc uint32, in isa.Instr, addr uint32, taken bool) *tb {
	b.buf.Append(trace.Record{PC: pc, Instr: in, Addr: addr, Taken: taken})
	return b
}

func (b *tb) add(in isa.Instr) *tb {
	b.raw(b.pc, in, 0, false)
	b.pc++
	return b
}

func (b *tb) mem(in isa.Instr, addr uint32) *tb {
	b.raw(b.pc, in, addr, false)
	b.pc++
	return b
}

func (b *tb) branch(in isa.Instr, taken bool) *tb {
	b.raw(b.pc, in, 0, taken)
	b.pc++
	return b
}

func (b *tb) src() trace.Source { return b.buf.Reader() }

func alu(op isa.Op, rd, rs1, rs2 uint8) isa.Instr {
	return isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

func aluImm(op isa.Op, rd, rs1 uint8, imm int32) isa.Instr {
	return isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm, HasImm: true}
}

func ldi(rd uint8, imm int32) isa.Instr {
	return isa.Instr{Op: isa.Ldi, Rd: rd, Imm: imm, HasImm: true}
}

func runTB(t *testing.T, b *tb, cfg Config, width int) *Result {
	t.Helper()
	return Run(b.src(), cfg, Params{Width: width})
}

func TestSerialChainIPCOne(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 0))
	for i := 0; i < 9; i++ {
		b.add(aluImm(isa.Add, 1, 1, 1))
	}
	r := runTB(t, b, ConfigA, 4)
	if r.Cycles != 10 {
		t.Errorf("serial chain cycles = %d, want 10", r.Cycles)
	}
	if r.Instructions != 10 {
		t.Errorf("instructions = %d, want 10", r.Instructions)
	}
}

func TestIndependentFillWidth(t *testing.T) {
	b := &tb{}
	for i := uint8(1); i <= 8; i++ {
		b.add(ldi(i, int32(i)))
	}
	r := runTB(t, b, ConfigA, 4)
	if r.Cycles != 2 {
		t.Errorf("8 independent @ width 4: cycles = %d, want 2", r.Cycles)
	}
	if got := r.IPC(); got != 4 {
		t.Errorf("IPC = %v, want 4", got)
	}
}

func TestLoadLatencyTwo(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 0x2000))
	b.mem(alu(isa.Ld, 2, 1, 0), 0x2000)
	b.add(aluImm(isa.Add, 3, 2, 1))
	r := runTB(t, b, ConfigA, 4)
	// ldi c1 (ready c2); ld c2 (data c4); add c4.
	if r.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", r.Cycles)
	}
}

func TestDivLatencyTwelve(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 8))
	b.add(aluImm(isa.Div, 2, 1, 2))
	b.add(aluImm(isa.Add, 3, 2, 0))
	r := runTB(t, b, ConfigA, 4)
	// ldi c1; div c2 (ready c14); add c14.
	if r.Cycles != 14 {
		t.Errorf("cycles = %d, want 14", r.Cycles)
	}
}

func TestMulLatencyTwo(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 8))
	b.add(aluImm(isa.Mul, 2, 1, 2))
	b.add(aluImm(isa.Add, 3, 2, 0))
	r := runTB(t, b, ConfigA, 4)
	// ldi c1; mul c2 (ready c4); add c4.
	if r.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", r.Cycles)
	}
}

func TestMispredictionBarrier(t *testing.T) {
	b := &tb{}
	b.add(alu(isa.Cmp, 0, 1, 2))
	// The McFarling predictor starts weakly-taken; an untaken branch
	// mispredicts.
	b.branch(isa.Instr{Op: isa.Beq, Target: 0}, false)
	b.add(ldi(5, 1))
	r := runTB(t, b, ConfigA, 4)
	// cmp c1 (CC ready c2); beq c2, mispredicted -> barrier c3; ldi c3.
	if r.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", r.Cycles)
	}
	if r.Mispredicts != 1 || r.CondBranches != 1 {
		t.Errorf("mispredicts/branches = %d/%d, want 1/1", r.Mispredicts, r.CondBranches)
	}
}

func TestCorrectPredictionNoBarrier(t *testing.T) {
	b := &tb{}
	b.add(alu(isa.Cmp, 0, 1, 2))
	b.branch(isa.Instr{Op: isa.Beq, Target: 0}, true) // weakly-taken: correct
	b.add(ldi(5, 1))
	r := runTB(t, b, ConfigA, 4)
	// cmp c1; beq c2; ldi c1 (no barrier).
	if r.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", r.Cycles)
	}
	if r.Mispredicts != 0 {
		t.Errorf("mispredicts = %d, want 0", r.Mispredicts)
	}
}

func TestPerfectBranchesAblation(t *testing.T) {
	b := &tb{}
	b.add(alu(isa.Cmp, 0, 1, 2))
	b.branch(isa.Instr{Op: isa.Beq, Target: 0}, false)
	b.add(ldi(5, 1))
	cfg := ConfigA
	cfg.PerfectBranches = true
	r := runTB(t, b, cfg, 4)
	if r.Mispredicts != 0 {
		t.Errorf("perfect branches mispredicted %d times", r.Mispredicts)
	}
	if r.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", r.Cycles)
	}
}

func TestWindowLimitsLookahead(t *testing.T) {
	build := func() *tb {
		b := &tb{}
		b.mem(aluImm(isa.Ld, 1, 0, 0x2000), 0x2000) // c1, data c3
		b.add(aluImm(isa.Add, 2, 1, 0))             // c3
		b.add(ldi(3, 1))
		b.add(ldi(4, 1))
		b.add(ldi(5, 1))
		return b
	}
	small := Run(build().src(), ConfigA, Params{Width: 4, WindowSize: 2})
	large := Run(build().src(), ConfigA, Params{Width: 4, WindowSize: 8})
	// Window 2: the trailing ldis enter one per cycle behind the stalled
	// add; window 8: they all issue in cycle 1.
	if small.Cycles != 4 {
		t.Errorf("window 2 cycles = %d, want 4", small.Cycles)
	}
	if large.Cycles != 3 {
		t.Errorf("window 8 cycles = %d, want 3", large.Cycles)
	}
}

func TestIssueWidthCaps(t *testing.T) {
	b := &tb{}
	for i := 0; i < 12; i++ {
		b.add(ldi(uint8(1+i%20), 7))
	}
	r := Run(b.src(), ConfigA, Params{Width: 2, WindowSize: 16})
	if r.Cycles != 6 {
		t.Errorf("12 independent @ width 2: cycles = %d, want 6", r.Cycles)
	}
}

func TestStoreLoadDisambiguation(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 100))
	b.mem(aluImm(isa.St, 1, 0, 0x40), 0x40)
	b.mem(aluImm(isa.Ld, 2, 0, 0x40), 0x40)
	r := runTB(t, b, ConfigA, 4)
	// ldi c1; st c2 (data dep); ld waits store completion: c3.
	if r.Cycles != 3 {
		t.Errorf("conflicting store-load cycles = %d, want 3", r.Cycles)
	}

	b2 := &tb{}
	b2.add(ldi(1, 100))
	b2.mem(aluImm(isa.St, 1, 0, 0x40), 0x40)
	b2.mem(aluImm(isa.Ld, 2, 0, 0x80), 0x80) // different address: no dep
	r2 := runTB(t, b2, ConfigA, 4)
	if r2.Cycles != 2 {
		t.Errorf("disjoint store-load cycles = %d, want 2", r2.Cycles)
	}
}

// --- collapsing -------------------------------------------------------------

func TestCollapsePairSameCycle(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(aluImm(isa.Add, 2, 1, 1))
	base := Run(b.src(), ConfigA, Params{Width: 4})
	coll := Run(b.src(), ConfigC, Params{Width: 4})
	if base.Cycles != 2 {
		t.Errorf("base cycles = %d, want 2", base.Cycles)
	}
	if coll.Cycles != 1 {
		t.Errorf("collapsed cycles = %d, want 1", coll.Cycles)
	}
	if coll.Groups[collapse.Cat31] != 1 {
		t.Errorf("3-1 groups = %d, want 1", coll.Groups[collapse.Cat31])
	}
	if coll.CollapsedInstrs != 2 {
		t.Errorf("collapsed instrs = %d, want 2", coll.CollapsedInstrs)
	}
	if coll.PairSigs["mvi arri"] != 1 {
		t.Errorf("pair sigs = %v, want mvi arri", coll.PairSigs)
	}
	if coll.DistHist[0] != 1 {
		t.Errorf("distance histogram = %v, want one at distance 1", coll.DistHist)
	}
}

func TestCollapseTripleChain(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(aluImm(isa.Add, 2, 1, 1))
	b.add(aluImm(isa.Add, 3, 2, 2))
	r := Run(b.src(), ConfigC, Params{Width: 4})
	if r.Cycles != 1 {
		t.Errorf("triple chain cycles = %d, want 1", r.Cycles)
	}
	if r.TripleSigs["mvi arri arri"] != 1 {
		t.Errorf("triple sigs = %v", r.TripleSigs)
	}
	if r.CollapsedInstrs != 3 {
		t.Errorf("collapsed instrs = %d, want 3", r.CollapsedInstrs)
	}
	// Distances 1 (pair) plus 1 and 2 (triple).
	if r.DistHist[0] != 2 || r.DistHist[1] != 1 {
		t.Errorf("distance histogram = %v, want [2 1 ...]", r.DistHist)
	}
}

func TestCollapseCmpBranch(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(aluImm(isa.Cmp, 0, 1, 0))
	b.branch(isa.Instr{Op: isa.Beq, Target: 0}, true)
	r := Run(b.src(), ConfigC, Params{Width: 4})
	if r.Cycles != 1 {
		t.Errorf("cycles = %d, want 1 (ldi+cmp+beq all collapse)", r.Cycles)
	}
	if r.TripleSigs["mvi arr0 brc"] != 1 {
		t.Errorf("triple sigs = %v, want mvi arr0 brc", r.TripleSigs)
	}
}

func TestCollapseExpressionTooWide(t *testing.T) {
	// Producers with two register operands each feeding a consumer with
	// two register operands: the pair expression is (r+r)+r = 3 (fits) but
	// a triple through both would be 4... build a case that exceeds 4:
	// p1 = arrr (2 ops), consumer uses p1 twice -> 4 ops (fits 4-1); then
	// a chain where the total is 5 must NOT collapse fully.
	b := &tb{}
	b.add(alu(isa.Add, 1, 10, 11)) // arrr: 2 ops, ready c2
	b.add(alu(isa.Add, 2, 1, 12))  // pair (r10+r11)+r12 = 3 ops -> collapses, c1
	b.add(alu(isa.Add, 3, 2, 13))  // triple = 4 ops -> collapses, c1
	b.add(alu(isa.Add, 4, 3, 14))  // would need 5 ops: cannot collapse to depth 3
	r := Run(b.src(), ConfigC, Params{Width: 8})
	// i3 can still pair-collapse with i2 (waits for i2's sources: r2... i2's
	// source r1 result ready c2, r13 ready c0) -> issue c2.
	if r.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", r.Cycles)
	}
}

func TestCollapsePairsOnlyAblation(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(aluImm(isa.Add, 2, 1, 1))
	b.add(aluImm(isa.Add, 3, 2, 2))
	cfg := ConfigC
	cfg.PairsOnly = true
	r := Run(b.src(), cfg, Params{Width: 4})
	if len(r.TripleSigs) != 0 {
		t.Errorf("pairs-only produced triples: %v", r.TripleSigs)
	}
	// i2 pair-collapses with i1 but must wait for i1's source r1 (ready c2).
	if r.Cycles != 2 {
		t.Errorf("pairs-only cycles = %d, want 2", r.Cycles)
	}
}

func TestCollapseConsecutiveOnlyAblation(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(ldi(9, 7)) // intervening instruction: distance 2
	b.add(aluImm(isa.Add, 2, 1, 1))
	cfg := ConfigC
	cfg.ConsecutiveOnly = true
	r := Run(b.src(), cfg, Params{Width: 4})
	if r.TotalGroups() != 0 {
		t.Errorf("consecutive-only collapsed at distance 2: %d groups", r.TotalGroups())
	}
	full := Run(b.src(), ConfigC, Params{Width: 4})
	if full.TotalGroups() == 0 {
		t.Error("full collapsing should collapse at distance 2")
	}
	if full.DistHist[1] != 1 {
		t.Errorf("distance histogram = %v, want one at distance 2", full.DistHist)
	}
}

func TestCollapseNoShiftAblation(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(aluImm(isa.Sll, 2, 1, 3))
	b.add(alu(isa.Add, 3, 2, 4))
	cfg := ConfigC
	cfg.NoShiftCollapse = true
	r := Run(b.src(), cfg, Params{Width: 4})
	full := Run(b.src(), ConfigC, Params{Width: 4})
	if r.TotalGroups() >= full.TotalGroups() {
		t.Errorf("no-shift groups = %d, full = %d; shift removal should reduce",
			r.TotalGroups(), full.TotalGroups())
	}
}

func TestCollapseZeroDetection(t *testing.T) {
	// Paper's Section 3 example: or/sub/shift feeding a zero-offset load.
	// The raw 5-1 expression collapses only via zero detection.
	// Rg (r11) and Ra (r15) are initial register values, so the collapse
	// through all three producers is the only way the load issues in cycle 1.
	b := &tb{}
	b.add(aluImm(isa.Or, 10, 11, 648))  // 1. Rf = Rg or 0x288
	b.add(aluImm(isa.Sub, 13, 15, 1))   // 2. Rh = Ra - 1
	b.add(alu(isa.Srl, 14, 10, 13))     // 3. Rd = Rf >> Rh
	b.mem(aluImm(isa.Ld, 16, 14, 0), 4) // 4. Rx = [Rd + 0]
	r := Run(b.src(), ConfigC, Params{Width: 8})
	if r.Cycles != 1 {
		t.Errorf("cycles = %d, want 1 (all four instructions issue together)", r.Cycles)
	}
	if r.Groups[collapse.Cat0Op] == 0 {
		t.Errorf("no 0-op collapse recorded: groups = %v", r.Groups)
	}
	if r.GroupsBySize[4] == 0 {
		t.Errorf("no 4-instruction group recorded: %v", r.GroupsBySize)
	}
	cfg := ConfigC
	cfg.NoZeroDetect = true
	r2 := Run(b.src(), cfg, Params{Width: 8})
	if r2.Groups[collapse.Cat0Op] != 0 {
		t.Errorf("zero detection disabled but 0-op groups = %d", r2.Groups[collapse.Cat0Op])
	}
}

func TestCollapseRequiresCoresidence(t *testing.T) {
	// With window 2, a producer two slots back has already issued and left
	// the window before the consumer enters: no collapse possible.
	b := &tb{}
	b.add(ldi(1, 5))
	b.add(ldi(9, 6))
	b.add(ldi(8, 7))
	b.add(aluImm(isa.Add, 2, 1, 1)) // distance 3 from the producer
	r := Run(b.src(), ConfigC, Params{Width: 1, WindowSize: 2})
	if r.TotalGroups() != 0 {
		t.Errorf("collapse across window boundary: %d groups", r.TotalGroups())
	}
}

// --- load speculation --------------------------------------------------------

// chainedLoads builds k iterations of a pointer-to-array idiom where the
// load address is computed by a long-latency chain, so the load is never
// "ready"; addresses stride by 4 so the table learns them.
func chainedLoads(k int) *tb {
	b := &tb{}
	b.add(ldi(1, 0x1000))
	for i := 0; i < k; i++ {
		b.raw(1, aluImm(isa.Div, 1, 1, 1), 0, false) // slow address chain
		b.raw(2, aluImm(isa.Ld, 2, 1, 0), uint32(0x1000+4*i), false)
		b.raw(3, alu(isa.Add, 3, 2, 3), 0, false) // consume the load
	}
	return b
}

func TestLoadSpeculationCategories(t *testing.T) {
	r := Run(chainedLoads(20).src(), ConfigB, Params{Width: 4})
	if r.Loads != 20 {
		t.Fatalf("loads = %d, want 20", r.Loads)
	}
	total := r.LoadReady + r.LoadPredCorrect + r.LoadPredIncorrect + r.LoadNotPred
	if total != r.Loads {
		t.Errorf("load categories sum %d != loads %d", total, r.Loads)
	}
	if r.LoadPredCorrect < 10 {
		t.Errorf("predicted-correct = %d, want >= 10 after warmup", r.LoadPredCorrect)
	}
	if r.LoadNotPred == 0 {
		t.Error("expected some not-predicted loads during warmup")
	}
}

func TestLoadSpeculationShortensCriticalPath(t *testing.T) {
	a := Run(chainedLoads(3).src(), ConfigA, Params{Width: 4})
	bres := Run(chainedLoads(20).src(), ConfigB, Params{Width: 4})
	abase := Run(chainedLoads(20).src(), ConfigA, Params{Width: 4})
	if bres.Cycles >= abase.Cycles {
		t.Errorf("speculation did not help: B %d cycles vs A %d", bres.Cycles, abase.Cycles)
	}
	_ = a
}

func TestIdealLoadSpeculation(t *testing.T) {
	r := Run(chainedLoads(20).src(), ConfigE, Params{Width: 4})
	if r.LoadPredIncorrect != 0 || r.LoadNotPred != 0 {
		t.Errorf("ideal speculation: incorrect=%d notpred=%d, want 0/0",
			r.LoadPredIncorrect, r.LoadNotPred)
	}
	if r.LoadPredCorrect == 0 {
		t.Error("ideal speculation predicted nothing")
	}
}

func TestReadyLoadClassification(t *testing.T) {
	// Address from r0+imm: always ready; never consults the table.
	b := &tb{}
	for i := 0; i < 5; i++ {
		b.mem(aluImm(isa.Ld, 2, 0, int32(0x1000+4*i)), uint32(0x1000+4*i))
	}
	r := Run(b.src(), ConfigD, Params{Width: 4})
	if r.LoadReady != 5 {
		t.Errorf("ready loads = %d, want 5", r.LoadReady)
	}
}

func TestMispredictedLoadBehavesLikeBase(t *testing.T) {
	// Chaotic addresses after the table gains confidence: mispredictions
	// must not make timing better or worse than base.
	mk := func() *tb {
		b := &tb{}
		b.add(ldi(1, 0x1000))
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			addr := uint32(0x1000 + 4*i)
			if i > 20 {
				addr = uint32(0x1000 + 4*rng.Intn(1<<16))
			}
			b.raw(1, aluImm(isa.Div, 1, 1, 1), 0, false)
			b.raw(2, aluImm(isa.Ld, 2, 1, 0), addr, false)
		}
		return b
	}
	rb := Run(mk().src(), ConfigB, Params{Width: 4})
	if rb.LoadPredIncorrect == 0 {
		t.Skip("trace did not induce mispredictions; adjust seed")
	}
	// Dependents of mispredicted loads wait for the full chain; cycles must
	// equal the base machine's on this trace shape (speculation only helps
	// when correct, and the correct window here is the strided prefix).
	ra := Run(mk().src(), ConfigA, Params{Width: 4})
	if rb.Cycles > ra.Cycles {
		t.Errorf("speculation slowed execution: B %d vs A %d", rb.Cycles, ra.Cycles)
	}
}

// --- cross-cutting properties -----------------------------------------------

// randomTrace draws a random 64-instruction static program, then n
// dynamic records at random PCs of it, with random addresses and branch
// outcomes. A PC always carries the same instruction, as in any trace an
// execution can produce.
func randomTrace(seed int64, n int) *tb {
	rng := rand.New(rand.NewSource(seed))
	b := &tb{}
	ops := []isa.Op{isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor, isa.Sll, isa.Srl,
		isa.Mov, isa.Ldi, isa.Mul, isa.Ld, isa.St, isa.Cmp, isa.Beq}
	prog := make([]isa.Instr, 64)
	for pc := range prog {
		op := ops[rng.Intn(len(ops))]
		rd := uint8(rng.Intn(31))
		rs1 := uint8(rng.Intn(32))
		rs2 := uint8(rng.Intn(32))
		switch op {
		case isa.Beq:
			prog[pc] = isa.Instr{Op: op}
		case isa.Ld, isa.St:
			in := isa.Instr{Op: op, Rd: rd, Rs1: rs1}
			if rng.Intn(2) == 0 {
				in.HasImm = true
				in.Imm = int32(rng.Intn(64) * 4)
			} else {
				in.Rs2 = rs2
			}
			prog[pc] = in
		case isa.Ldi:
			prog[pc] = isa.Instr{Op: op, Rd: rd, Imm: int32(rng.Intn(100) - 50), HasImm: true}
		case isa.Mov:
			prog[pc] = isa.Instr{Op: op, Rd: rd, Rs1: rs1}
		default:
			in := isa.Instr{Op: op, Rd: rd, Rs1: rs1}
			if rng.Intn(3) == 0 {
				in.HasImm = true
				in.Imm = int32(rng.Intn(32))
			} else {
				in.Rs2 = rs2
			}
			prog[pc] = in
		}
	}
	for i := 0; i < n; i++ {
		pc := uint32(rng.Intn(len(prog)))
		b.raw(pc, prog[pc], uint32(rng.Intn(256)*4), rng.Intn(2) == 0)
	}
	return b
}

func TestRandomTraceInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 500
		for _, cfg := range Configs() {
			for _, w := range []int{1, 4, 16} {
				r := Run(randomTrace(seed, n).src(), cfg, Params{Width: w})
				if r.Instructions != int64(n) {
					t.Fatalf("seed %d cfg %s: instructions %d != %d", seed, cfg.Name, r.Instructions, n)
				}
				minCycles := int64((n + w - 1) / w)
				if r.Cycles < minCycles {
					t.Errorf("seed %d cfg %s w %d: cycles %d below issue-width bound %d",
						seed, cfg.Name, w, r.Cycles, minCycles)
				}
				if got := r.LoadReady + r.LoadPredCorrect + r.LoadPredIncorrect + r.LoadNotPred; cfg.LoadSpec && got != r.Loads {
					t.Errorf("seed %d cfg %s: load categories sum %d != %d", seed, cfg.Name, got, r.Loads)
				}
				if r.CollapsedInstrs > r.Instructions {
					t.Errorf("collapsed instrs %d > instructions %d", r.CollapsedInstrs, r.Instructions)
				}
				if !cfg.Collapse && r.TotalGroups() != 0 {
					t.Errorf("cfg %s formed collapse groups", cfg.Name)
				}
				var distSum int64
				for _, d := range r.DistHist {
					distSum += d
				}
				if distSum != r.DistCount {
					t.Errorf("distance histogram sum %d != count %d", distSum, r.DistCount)
				}
			}
		}
	}
}

func TestConfigMonotonicityOnRandomTraces(t *testing.T) {
	// The base machine should never beat the collapsing machine by more
	// than slot-contention noise, and E should be at least as fast as D on
	// these traces.
	for seed := int64(0); seed < 6; seed++ {
		run := func(cfg Config) int64 {
			return Run(randomTrace(seed, 800).src(), cfg, Params{Width: 8}).Cycles
		}
		a, c, d, e := run(ConfigA), run(ConfigC), run(ConfigD), run(ConfigE)
		// Greedy scheduling with finite issue bandwidth is not strictly
		// monotone (an earlier issue can displace another), so allow a
		// couple of cycles of slot-contention noise.
		const slack = 3
		if c > a+slack {
			t.Errorf("seed %d: collapsing slower than base (%d > %d)", seed, c, a)
		}
		if e > d+slack {
			t.Errorf("seed %d: ideal speculation slower than real (%d > %d)", seed, e, d)
		}
	}
}

func TestDeterminism(t *testing.T) {
	r1 := Run(randomTrace(42, 600).src(), ConfigD, Params{Width: 8})
	r2 := Run(randomTrace(42, 600).src(), ConfigD, Params{Width: 8})
	if !reflect.DeepEqual(r1, r2) {
		t.Error("identical runs produced different results")
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		cfg, err := ConfigByName(name)
		if err != nil || cfg.Name != name {
			t.Errorf("ConfigByName(%q) = %+v, %v", name, cfg, err)
		}
	}
	if _, err := ConfigByName("Z"); err == nil {
		t.Error("ConfigByName(Z) should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Instructions: 100, Cycles: 50, CondBranches: 10, Mispredicts: 1,
		Loads: 20, LoadReady: 5, CollapsedInstrs: 30}
	r.Groups[collapse.Cat31] = 6
	r.Groups[collapse.Cat41] = 3
	r.Groups[collapse.Cat0Op] = 1
	if r.IPC() != 2 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.BranchAccuracy() != 90 {
		t.Errorf("accuracy = %v", r.BranchAccuracy())
	}
	if r.LoadPercent(r.LoadReady) != 25 {
		t.Errorf("load percent = %v", r.LoadPercent(r.LoadReady))
	}
	if r.CollapsedPercent() != 30 {
		t.Errorf("collapsed percent = %v", r.CollapsedPercent())
	}
	if r.TotalGroups() != 10 {
		t.Errorf("total groups = %v", r.TotalGroups())
	}
	if r.CategoryPercent(collapse.Cat31) != 60 {
		t.Errorf("category percent = %v", r.CategoryPercent(collapse.Cat31))
	}
	base := &Result{Instructions: 100, Cycles: 100}
	if got := r.SpeedupOver(base); got != 2 {
		t.Errorf("speedup = %v", got)
	}
}

func TestTopSigs(t *testing.T) {
	m := map[string]int64{"a b": 3, "c d": 9, "e f": 3, "g h": 1}
	top := TopSigs(m, 3)
	if len(top) != 3 || top[0].Sig != "c d" || top[1].Sig != "a b" || top[2].Sig != "e f" {
		t.Errorf("TopSigs = %v", top)
	}
}

func TestEmptyTrace(t *testing.T) {
	var b tb
	r := Run(b.src(), ConfigD, Params{Width: 4})
	if r.Instructions != 0 || r.Cycles != 0 {
		t.Errorf("empty trace: %d instr %d cycles", r.Instructions, r.Cycles)
	}
	if r.IPC() != 0 {
		t.Errorf("empty IPC = %v", r.IPC())
	}
}
