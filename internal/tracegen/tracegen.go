// Package tracegen generates seeded random and adversarial dynamic traces
// for the differential conformance harness (internal/oracle) and the
// metamorphic test suite.
//
// A generated trace is built from a synthetic *static program*: a fixed
// array of instructions whose PC → instruction mapping never changes during
// one trace, exactly like a trace emitted by the real emulator. That
// property matters: the scheduler caches its per-instruction collapse
// analysis by PC, and both predictors (branch, stride) index their tables
// by PC, so a generator that re-rolled the instruction at a PC mid-trace
// would exercise an input no legal execution can produce.
//
// Every generator is fully deterministic in (seed, profile): the same pair
// always yields the byte-identical trace, so a failing differential seed is
// a complete repro.
package tracegen

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Profile shapes one generated trace. The zero value is not useful; start
// from Default() or one of the named adversarial profiles in Profiles().
type Profile struct {
	Name string

	// Records is the dynamic trace length.
	Records int
	// StaticPCs is the synthetic static program size (the PC space).
	// Smaller programs revisit PCs more, training the PC-indexed
	// predictors harder; larger ones thrash them.
	StaticPCs int

	// DepDensity in [0,1] is the probability that an operand register is
	// drawn from the recently-written set instead of uniformly, producing
	// tight dependence chains at 1.0 and near-independent streams at 0.
	DepDensity float64

	// Class mix (fractions of the static program; the remainder becomes
	// plain ALU operations: arithmetic, logical, shifts, moves).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	MulDivFrac float64

	// ZeroFrac is the probability that an ALU/memory operand is a zero
	// operand — register r0 or a zero immediate — exercising the 0-op
	// collapse category (the %g0-heavy pathology).
	ZeroFrac float64
	// ImmFrac is the probability the second source is an immediate.
	ImmFrac float64

	// ChainLen, when > 0, forces dependence chains of roughly this length
	// by reusing one accumulator register: each chained instruction reads
	// the previous link's destination. Setting it near the scheduling
	// window size produces the window-boundary collapse pathology.
	ChainLen int

	// StrideFlipEvery, when > 0, makes every load walk an arithmetic
	// stride but flip between two different strides every N executions of
	// that load — the two-delta filter's worst case. 1 flips every time.
	StrideFlipEvery int

	// TakenBias in [0,1] is the probability a conditional branch is taken
	// (0.5 is adversarial for the predictor; 0.9 models loop branches).
	TakenBias float64
}

// Default returns a balanced random profile.
func Default() Profile {
	return Profile{
		Name: "uniform", Records: 256, StaticPCs: 64,
		DepDensity: 0.5, LoadFrac: 0.15, StoreFrac: 0.08,
		BranchFrac: 0.12, MulDivFrac: 0.03, ZeroFrac: 0.1, ImmFrac: 0.4,
		TakenBias: 0.6,
	}
}

// Profiles returns the named generator profiles used by the conformance
// harness, from a balanced mix to the documented adversarial pathologies.
func Profiles() []Profile {
	uniform := Default()

	dense := Default()
	dense.Name = "dense-deps"
	dense.DepDensity = 0.95
	dense.StaticPCs = 32

	sparse := Default()
	sparse.Name = "sparse-deps"
	sparse.DepDensity = 0.05

	zero := Default()
	zero.Name = "zero-heavy"
	zero.ZeroFrac = 0.6
	zero.ImmFrac = 0.6

	chain := Default()
	chain.Name = "window-boundary-chain"
	chain.DepDensity = 1.0
	chain.ChainLen = 16 // spans 2x width windows at width 4-8
	chain.BranchFrac = 0.05

	crossBB := Default()
	crossBB.Name = "cross-bb-collapse"
	crossBB.BranchFrac = 0.3
	crossBB.DepDensity = 0.9
	crossBB.TakenBias = 0.5
	crossBB.StaticPCs = 24

	storm := Default()
	storm.Name = "load-storm"
	storm.LoadFrac = 0.6
	storm.StoreFrac = 0.15
	storm.DepDensity = 0.8

	flip := Default()
	flip.Name = "stride-flip"
	flip.LoadFrac = 0.5
	flip.StrideFlipEvery = 2
	flip.StaticPCs = 16 // heavy reuse: every load PC trains its entry hard

	alias := Default()
	alias.Name = "stride-alias"
	alias.LoadFrac = 0.5
	alias.StaticPCs = 8192 // > 4096 stride entries: direct-mapped aliasing
	alias.Records = 512

	return []Profile{uniform, dense, sparse, zero, chain, crossBB, storm, flip, alias}
}

// ProfileByName resolves one of Profiles() by name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("tracegen: unknown profile %q", name)
}

// staticInstr is one synthetic static instruction plus its per-PC dynamic
// address state.
type staticInstr struct {
	in     isa.Instr
	target int // branch fall-through alternative (next pc when not taken)

	// load/store address walk state.
	addrBase uint32
	strideA  int32
	strideB  int32
	execs    int
}

// gen carries generation state.
type gen struct {
	rng    *rand.Rand
	p      Profile
	prog   []staticInstr
	recent []uint8 // recently written registers (dependence pool)
	chain  uint8   // current chain accumulator register (ChainLen mode)
	links  int
}

// Gen generates a trace for profile p from the given seed. It is exactly
// Stream drained into a buffer — the two can never drift apart.
func Gen(seed int64, p Profile) *trace.Buffer {
	buf := &trace.Buffer{}
	s := NewStream(seed, p)
	var rec trace.Record
	for s.Next(&rec) {
		buf.Append(rec)
	}
	return buf
}

// Stream generates the trace record by record — the same deterministic
// (seed, profile) → records mapping as Gen, without ever materializing the
// trace. It implements trace.ErrSource (generation cannot fail), so a
// Stream plugs directly into anything that consumes a trace source: the
// scheduler, a spool writer, a content hash, the memory-bounded pipeline
// tests.
type Stream struct {
	g    *gen
	pc   int
	n    int
	want int
}

// NewStream starts a fresh generation stream for profile p from seed.
func NewStream(seed int64, p Profile) *Stream {
	if p.Records <= 0 {
		p.Records = 256
	}
	if p.StaticPCs <= 0 {
		p.StaticPCs = 64
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), p: p}
	g.buildStatic()
	return &Stream{g: g, want: p.Records}
}

// Next implements trace.Source.
func (s *Stream) Next(rec *trace.Record) bool {
	if s.n >= s.want {
		return false
	}
	g := s.g
	st := &g.prog[s.pc]
	*rec = trace.Record{PC: uint32(s.pc), Instr: st.in}
	switch st.in.Op {
	case isa.Ld, isa.St:
		rec.Addr = g.nextAddr(st)
		rec.Value = int32(g.rng.Intn(64)) - 8
	case isa.Beq, isa.Bne, isa.Blt, isa.Ble, isa.Bgt, isa.Bge, isa.Bltu, isa.Bgeu:
		rec.Taken = g.rng.Float64() < g.p.TakenBias
	default:
		rec.Value = int32(g.rng.Intn(1024))
	}

	// Walk the synthetic control flow.
	switch {
	case rec.Instr.IsCondBranch() && rec.Taken:
		s.pc = int(st.in.Target)
	case rec.Instr.Op == isa.Jmp:
		s.pc = int(st.in.Target)
	default:
		s.pc++
	}
	if s.pc >= len(g.prog) || s.pc < 0 {
		s.pc = 0
	}
	s.n++
	return true
}

// Err implements trace.ErrSource: generation cannot fail.
func (s *Stream) Err() error { return nil }

// buildStatic rolls the synthetic static program once; the PC → instruction
// mapping is then immutable for the whole trace.
func (g *gen) buildStatic() {
	p := g.p
	g.prog = make([]staticInstr, p.StaticPCs)
	for pc := range g.prog {
		s := &g.prog[pc]
		r := g.rng.Float64()
		switch {
		case r < p.LoadFrac:
			s.in = g.memInstr(isa.Ld)
		case r < p.LoadFrac+p.StoreFrac:
			s.in = g.memInstr(isa.St)
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
			s.in = g.branchInstr(pc)
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.MulDivFrac:
			s.in = g.aluInstr([]isa.Op{isa.Mul, isa.Div, isa.Rem})
		default:
			s.in = g.aluInstr(nil)
		}
		g.noteWrite(s.in)
		s.addrBase = uint32(0x1000 + g.rng.Intn(1<<16)*4)
		s.strideA = int32(4 * (g.rng.Intn(8) + 1))
		s.strideB = s.strideA * 3
		if g.rng.Intn(2) == 0 {
			s.strideB = -s.strideA
		}
	}
}

func (g *gen) nextAddr(s *staticInstr) uint32 {
	stride := s.strideA
	if g.p.StrideFlipEvery > 0 && (s.execs/g.p.StrideFlipEvery)%2 == 1 {
		stride = s.strideB
	}
	addr := uint32(int32(s.addrBase) + stride*int32(s.execs))
	if g.p.StrideFlipEvery == 0 && g.rng.Float64() < 0.15 {
		// Occasional irregular access (pointer chase flavor).
		addr = uint32(0x1000 + g.rng.Intn(1<<18)*4)
	}
	s.execs++
	return addr &^ 3
}

// srcReg draws a source register: from the recent-writer pool with
// probability DepDensity, uniformly otherwise, r0 with probability
// ZeroFrac.
func (g *gen) srcReg() uint8 {
	if g.rng.Float64() < g.p.ZeroFrac {
		return isa.R0
	}
	if len(g.recent) > 0 && g.rng.Float64() < g.p.DepDensity {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	return uint8(1 + g.rng.Intn(31))
}

func (g *gen) dstReg() uint8 { return uint8(1 + g.rng.Intn(31)) }

// noteWrite remembers in's destination in the recent-writer pool (bounded
// so density stays meaningful).
func (g *gen) noteWrite(in isa.Instr) {
	w := in.Writes()
	if w < 0 || w == isa.CC {
		return
	}
	g.recent = append(g.recent, uint8(w))
	if len(g.recent) > 8 {
		g.recent = g.recent[1:]
	}
}

func (g *gen) imm() int32 {
	if g.rng.Float64() < g.p.ZeroFrac {
		return 0
	}
	return int32(g.rng.Intn(255) + 1)
}

var aluOps = []isa.Op{
	isa.Add, isa.Sub, isa.Cmp, isa.And, isa.Or, isa.Xor,
	isa.Andn, isa.Orn, isa.Xnor, isa.Sll, isa.Srl, isa.Sra,
	isa.Mov, isa.Ldi,
}

func (g *gen) aluInstr(ops []isa.Op) isa.Instr {
	if ops == nil {
		ops = aluOps
	}
	op := ops[g.rng.Intn(len(ops))]
	in := isa.Instr{Op: op, Rd: g.dstReg(), Rs1: g.srcReg()}
	switch op {
	case isa.Mov:
		// single register source, no second operand
	case isa.Ldi:
		in.Imm = g.imm()
		in.HasImm = true
	default:
		if g.rng.Float64() < g.p.ImmFrac {
			in.Imm = g.imm()
			in.HasImm = true
		} else {
			in.Rs2 = g.srcReg()
		}
	}
	if g.p.ChainLen > 0 && op != isa.Cmp {
		// Thread a dependence chain through one accumulator: each link
		// reads the previous link's result.
		if g.links > 0 && g.chain != isa.R0 {
			in.Rs1 = g.chain
		}
		g.links++
		if g.links >= g.p.ChainLen {
			g.links = 0
		}
		g.chain = in.Rd
	}
	return in
}

func (g *gen) memInstr(op isa.Op) isa.Instr {
	in := isa.Instr{Op: op, Rd: g.dstReg(), Rs1: g.srcReg()}
	if op == isa.St {
		in.Rd = g.srcReg() // stored value register is a source
		if in.Rd == isa.R0 {
			in.Rd = 1
		}
	}
	if g.rng.Float64() < g.p.ImmFrac {
		in.Imm = g.imm()
		in.HasImm = true
	} else {
		in.Rs2 = g.srcReg()
	}
	return in
}

var brcOps = []isa.Op{isa.Beq, isa.Bne, isa.Blt, isa.Ble, isa.Bgt, isa.Bge, isa.Bltu, isa.Bgeu}

func (g *gen) branchInstr(pc int) isa.Instr {
	op := brcOps[g.rng.Intn(len(brcOps))]
	target := g.rng.Intn(g.p.StaticPCs)
	return isa.Instr{Op: op, Target: int32(target)}
}

// Concat returns a new buffer holding a followed by b (metamorphic
// duplicate-trace property helper).
func Concat(a, b *trace.Buffer) *trace.Buffer {
	out := &trace.Buffer{}
	for _, src := range []*trace.Buffer{a, b} {
		var rec trace.Record
		r := src.Reader()
		for r.Next(&rec) {
			out.Append(rec)
		}
	}
	return out
}

// Filter returns a new buffer with the records of src for which keep
// returns true (used by metamorphic class-restriction properties and the
// divergence minimizer).
func Filter(src *trace.Buffer, keep func(i int, rec *trace.Record) bool) *trace.Buffer {
	out := &trace.Buffer{}
	for i := 0; i < src.Len(); i++ {
		rec := src.At(i)
		if keep(i, rec) {
			out.Append(*rec)
		}
	}
	return out
}
