// Package vm implements a functional emulator for SV8 programs. It is the
// repository's substitute for the paper's qpt2-instrumented SPARC runs: it
// executes a program and streams one trace.Record per dynamic instruction
// (NOPs excluded, matching the paper's methodology) to an optional sink.
//
// Machine model: 32-bit words, byte addresses, word-aligned memory access.
// At startup the VM loads the data segment at Program.DataBase, points sp
// and fp at the top of memory, and passes the heap bounds in r2 (base) and
// r3 (limit) for the MiniC runtime's allocator.
package vm

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Default machine dimensions.
const (
	DefaultMemWords = 1 << 22 // 16 MiB
	DefaultMaxSteps = 1 << 30
)

// RuntimeError describes an execution fault with machine context.
type RuntimeError struct {
	PC   int32
	Step int64
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: step %d pc %d: %s", e.Step, e.PC, e.Msg)
}

// ErrStepLimit is wrapped by the error returned when execution exceeds
// MaxSteps.
var ErrStepLimit = errors.New("step limit exceeded")

// Machine executes one program. Create with New, run with Run.
type Machine struct {
	prog *isa.Program
	mem  []int32
	regs [32]int32
	ccA  int32 // last Cmp operands; branch conditions derive from these
	ccB  int32

	pc    int32
	step  int64
	halt  bool
	limit int64

	// Output collects values emitted by Out instructions.
	Output []int32

	sink func(*trace.Record)
	rec  trace.Record
	ctx  context.Context
}

// Option configures a Machine.
type Option func(*Machine)

// WithMemWords sets the memory size in 32-bit words.
func WithMemWords(n int) Option { return func(m *Machine) { m.mem = make([]int32, n) } }

// WithMaxSteps bounds the number of executed instructions.
func WithMaxSteps(n int64) Option { return func(m *Machine) { m.limit = n } }

// WithSink registers a callback invoked once per executed non-NOP
// instruction. The record is reused between calls; sinks must copy what
// they keep.
func WithSink(fn func(*trace.Record)) Option { return func(m *Machine) { m.sink = fn } }

// WithContext makes Run honor ctx: execution stops with an error wrapping
// ctx.Err() once the context is canceled or its deadline passes. The
// context is polled every 4096 steps, so cancellation latency is bounded
// without slowing the interpreter loop.
func WithContext(ctx context.Context) Option { return func(m *Machine) { m.ctx = ctx } }

// New creates a machine loaded with prog.
func New(prog *isa.Program, opts ...Option) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: prog, limit: DefaultMaxSteps, pc: prog.Entry}
	for _, o := range opts {
		o(m)
	}
	if m.mem == nil {
		m.mem = make([]int32, DefaultMemWords)
	}
	dataTop := int(prog.DataBase)/4 + len(prog.Data)
	if dataTop > len(m.mem) {
		return nil, fmt.Errorf("vm: data segment (%d words) exceeds memory", dataTop)
	}
	copy(m.mem[prog.DataBase/4:], prog.Data)

	memBytes := int32(len(m.mem) * 4)
	stackTop := memBytes - 16
	heapBase := (int32(prog.DataBase) + int32(4*len(prog.Data)) + 15) &^ 15
	heapLimit := memBytes - (memBytes / 4) // top quarter reserved for stack
	m.regs[isa.SP] = stackTop
	m.regs[isa.FP] = stackTop
	m.regs[isa.RegArg0] = heapBase
	m.regs[isa.RegArg0+1] = heapLimit
	return m, nil
}

// Steps reports the number of instructions executed so far (NOPs included).
func (m *Machine) Steps() int64 { return m.step }

// Reg reads dataflow register r (r0 reads as zero).
func (m *Machine) Reg(r int) int32 {
	if r == isa.R0 {
		return 0
	}
	return m.regs[r]
}

func (m *Machine) fault(msg string, args ...any) error {
	return &RuntimeError{PC: m.pc, Step: m.step, Msg: fmt.Sprintf(msg, args...)}
}

func (m *Machine) loadWord(addr int32) (int32, error) {
	a := uint32(addr)
	if a%4 != 0 {
		return 0, m.fault("unaligned load at %#x", a)
	}
	i := a / 4
	if i >= uint32(len(m.mem)) {
		return 0, m.fault("load out of range at %#x", a)
	}
	return m.mem[i], nil
}

func (m *Machine) storeWord(addr, v int32) error {
	a := uint32(addr)
	if a%4 != 0 {
		return m.fault("unaligned store at %#x", a)
	}
	i := a / 4
	if i >= uint32(len(m.mem)) {
		return m.fault("store out of range at %#x", a)
	}
	m.mem[i] = v
	return nil
}

// Run executes until Halt, a fault, the step limit, or context
// cancellation (WithContext).
func (m *Machine) Run() error {
	var done <-chan struct{}
	if m.ctx != nil {
		done = m.ctx.Done()
	}
	for !m.halt {
		if done != nil && m.step&4095 == 0 {
			select {
			case <-done:
				return fmt.Errorf("vm: execution canceled at step %d: %w", m.step, m.ctx.Err())
			default:
			}
		}
		if err := m.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) src2(in *isa.Instr) int32 {
	if in.HasImm {
		return in.Imm
	}
	return m.Reg(int(in.Rs2))
}

func (m *Machine) setReg(r uint8, v int32) {
	if r != isa.R0 {
		m.regs[r] = v
	}
}

func (m *Machine) stepOne() error {
	if m.pc < 0 || int(m.pc) >= len(m.prog.Code) {
		return m.fault("pc out of range")
	}
	if m.step >= m.limit {
		return fmt.Errorf("vm: pc %d: %w", m.pc, ErrStepLimit)
	}
	in := &m.prog.Code[m.pc]
	m.step++

	emit := m.sink != nil && in.Op != isa.Nop
	if emit {
		m.rec = trace.Record{PC: uint32(m.pc), Instr: *in}
	}

	next := m.pc + 1
	switch in.Op {
	case isa.Nop:

	case isa.Add:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))+m.src2(in))
	case isa.Sub:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))-m.src2(in))
	case isa.Cmp:
		m.ccA, m.ccB = m.Reg(int(in.Rs1)), m.src2(in)
	case isa.And:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))&m.src2(in))
	case isa.Or:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))|m.src2(in))
	case isa.Xor:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))^m.src2(in))
	case isa.Andn:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))&^m.src2(in))
	case isa.Orn:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))|^m.src2(in))
	case isa.Xnor:
		m.setReg(in.Rd, ^(m.Reg(int(in.Rs1)) ^ m.src2(in)))
	case isa.Sll:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))<<(uint32(m.src2(in))&31))
	case isa.Srl:
		m.setReg(in.Rd, int32(uint32(m.Reg(int(in.Rs1)))>>(uint32(m.src2(in))&31)))
	case isa.Sra:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))>>(uint32(m.src2(in))&31))
	case isa.Mov:
		m.setReg(in.Rd, m.Reg(int(in.Rs1)))
	case isa.Ldi:
		m.setReg(in.Rd, in.Imm)
	case isa.Mul:
		m.setReg(in.Rd, m.Reg(int(in.Rs1))*m.src2(in))
	case isa.Div:
		d := m.src2(in)
		if d == 0 {
			return m.fault("division by zero")
		}
		m.setReg(in.Rd, m.Reg(int(in.Rs1))/d)
	case isa.Rem:
		d := m.src2(in)
		if d == 0 {
			return m.fault("division by zero")
		}
		m.setReg(in.Rd, m.Reg(int(in.Rs1))%d)

	case isa.Ld:
		addr := m.Reg(int(in.Rs1)) + m.src2(in)
		v, err := m.loadWord(addr)
		if err != nil {
			return err
		}
		m.setReg(in.Rd, v)
		if emit {
			m.rec.Addr = uint32(addr)
		}
	case isa.St:
		addr := m.Reg(int(in.Rs1)) + m.src2(in)
		if err := m.storeWord(addr, m.Reg(int(in.Rd))); err != nil {
			return err
		}
		if emit {
			m.rec.Addr = uint32(addr)
		}

	case isa.Beq, isa.Bne, isa.Blt, isa.Ble, isa.Bgt, isa.Bge, isa.Bltu, isa.Bgeu:
		taken := m.cond(in.Op)
		if taken {
			next = in.Target
		}
		if emit {
			m.rec.Taken = taken
		}
	case isa.Jmp:
		next = in.Target
	case isa.Call:
		m.regs[isa.RA] = m.pc + 1
		next = in.Target
	case isa.Ret:
		next = m.regs[isa.RA]
	case isa.Jr:
		next = m.Reg(int(in.Rs1)) + in.Imm

	case isa.Out:
		m.Output = append(m.Output, m.Reg(int(in.Rd)))
	case isa.Halt:
		m.halt = true

	default:
		return m.fault("unimplemented opcode %v", in.Op)
	}

	if emit {
		switch {
		case in.Op == isa.St, in.Op == isa.Out:
			m.rec.Value = m.Reg(int(in.Rd))
		case in.Writes() >= 0 && in.Writes() != isa.CC:
			m.rec.Value = m.regs[in.Writes()]
		}
		m.sink(&m.rec)
	}
	m.pc = next
	return nil
}

func (m *Machine) cond(op isa.Op) bool {
	a, b := m.ccA, m.ccB
	switch op {
	case isa.Beq:
		return a == b
	case isa.Bne:
		return a != b
	case isa.Blt:
		return a < b
	case isa.Ble:
		return a <= b
	case isa.Bgt:
		return a > b
	case isa.Bge:
		return a >= b
	case isa.Bltu:
		return uint32(a) < uint32(b)
	case isa.Bgeu:
		return uint32(a) >= uint32(b)
	}
	return false
}

// Trace executes prog to completion and returns the full dynamic trace in
// memory together with the program output.
func Trace(prog *isa.Program, opts ...Option) (*trace.Buffer, []int32, error) {
	var buf trace.Buffer
	opts = append(opts, WithSink(func(r *trace.Record) { buf.Append(*r) }))
	m, err := New(prog, opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	return &buf, m.Output, nil
}

// Exec executes prog and returns only its output (a WithSink option
// observes the trace without materializing it).
func Exec(prog *isa.Program, opts ...Option) ([]int32, error) {
	m, err := New(prog, opts...)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m.Output, nil
}
