package depgraph

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workloads"
)

func rec(pc uint32, in isa.Instr) trace.Record { return trace.Record{PC: pc, Instr: in} }

func ldi(rd uint8, imm int32) isa.Instr {
	return isa.Instr{Op: isa.Ldi, Rd: rd, Imm: imm, HasImm: true}
}

func addImm(rd, rs1 uint8, imm int32) isa.Instr {
	return isa.Instr{Op: isa.Add, Rd: rd, Rs1: rs1, Imm: imm, HasImm: true}
}

func buf(recs ...trace.Record) *trace.Buffer {
	var b trace.Buffer
	for _, r := range recs {
		b.Append(r)
	}
	return &b
}

func TestSerialChain(t *testing.T) {
	// ldi; 4 dependent adds: path = 5 cycles, 5 instructions.
	b := buf(
		rec(0, ldi(1, 0)),
		rec(1, addImm(1, 1, 1)),
		rec(2, addImm(1, 1, 1)),
		rec(3, addImm(1, 1, 1)),
		rec(4, addImm(1, 1, 1)),
	)
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 5 {
		t.Errorf("critical path = %d, want 5", r.CriticalPath)
	}
	if r.CritInstructions != 5 {
		t.Errorf("path instructions = %d, want 5", r.CritInstructions)
	}
	if r.IPC() != 1 {
		t.Errorf("dataflow IPC = %v, want 1", r.IPC())
	}
	if r.CritClasses[isa.ClassAr] != 4 || r.CritClasses[isa.ClassMv] != 1 {
		t.Errorf("class mix = %v", r.CritClasses)
	}
}

func TestIndependentInstructions(t *testing.T) {
	b := buf(
		rec(0, ldi(1, 1)),
		rec(1, ldi(2, 2)),
		rec(2, ldi(3, 3)),
		rec(3, ldi(4, 4)),
	)
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 1 {
		t.Errorf("critical path = %d, want 1", r.CriticalPath)
	}
	if r.IPC() != 4 {
		t.Errorf("IPC = %v, want 4 (unbounded parallelism)", r.IPC())
	}
	if r.CritInstructions != 1 {
		t.Errorf("path has %d instructions, want 1", r.CritInstructions)
	}
}

func TestLatenciesOnPath(t *testing.T) {
	// ldi(1) -> div(12) -> add(1): path 14.
	b := buf(
		rec(0, ldi(1, 8)),
		rec(1, isa.Instr{Op: isa.Div, Rd: 2, Rs1: 1, Imm: 2, HasImm: true}),
		rec(2, addImm(3, 2, 1)),
	)
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 14 {
		t.Errorf("critical path = %d, want 14", r.CriticalPath)
	}
}

func TestMemoryDependenceOnPath(t *testing.T) {
	// ldi -> st -> ld -> add: 1 + 1 + 2 + 1 = 5.
	b := buf(
		rec(0, ldi(1, 7)),
		rec(1, isa.Instr{Op: isa.St, Rd: 1, Rs1: 0, Imm: 0x40, HasImm: true}),
		rec(2, isa.Instr{Op: isa.Ld, Rd: 2, Rs1: 0, Imm: 0x40, HasImm: true}),
		rec(3, addImm(3, 2, 1)),
	)
	b.At(1).Addr = 0x40
	b.At(2).Addr = 0x40
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 5 {
		t.Errorf("critical path = %d, want 5", r.CriticalPath)
	}
	if r.CritClasses[isa.ClassLd] != 1 || r.CritClasses[isa.ClassSt] != 1 {
		t.Errorf("memory ops missing from path: %v", r.CritClasses)
	}
}

func TestDisjointAddressesNoDependence(t *testing.T) {
	b := buf(
		rec(0, ldi(1, 7)),
		rec(1, isa.Instr{Op: isa.St, Rd: 1, Rs1: 0, Imm: 0x40, HasImm: true}),
		rec(2, isa.Instr{Op: isa.Ld, Rd: 2, Rs1: 0, Imm: 0x80, HasImm: true}),
	)
	b.At(1).Addr = 0x40
	b.At(2).Addr = 0x80
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 2 {
		t.Errorf("critical path = %d, want 2 (ld independent)", r.CriticalPath)
	}
}

func TestRealBranchesAddControlHeight(t *testing.T) {
	// A mispredicted branch (the default-taken predictor sees a not-taken
	// branch) serializes everything after it.
	mk := func() *trace.Buffer {
		return buf(
			rec(0, isa.Instr{Op: isa.Cmp, Rs1: 1, Imm: 0, HasImm: true}),
			trace.Record{PC: 1, Instr: isa.Instr{Op: isa.Beq}, Taken: false},
			rec(2, ldi(5, 1)),
		)
	}
	pure := Analyze(mk().Reader(), Options{})
	ctl := Analyze(mk().Reader(), Options{RealBranches: true})
	if pure.CriticalPath != 2 {
		t.Errorf("pure dataflow path = %d, want 2 (cmp -> branch)", pure.CriticalPath)
	}
	if ctl.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", ctl.Mispredicts)
	}
	// cmp finishes at 1, branch at 2, barrier pushes ldi to start 2 -> 3.
	if ctl.CriticalPath != 3 {
		t.Errorf("control path = %d, want 3", ctl.CriticalPath)
	}
	if ctl.CriticalPath <= pure.CriticalPath-1 {
		t.Error("control constraints should not shorten the path")
	}
}

func TestEmptyTrace(t *testing.T) {
	r := Analyze(buf().Reader(), Options{})
	if r.CriticalPath != 0 || r.IPC() != 0 || r.CritInstructions != 0 {
		t.Errorf("empty trace report = %+v", r)
	}
}

func TestCritClassPercent(t *testing.T) {
	b := buf(
		rec(0, ldi(1, 0)),
		rec(1, addImm(1, 1, 1)),
	)
	r := Analyze(b.Reader(), Options{})
	if got := r.CritClassPercent(isa.ClassAr); got != 50 {
		t.Errorf("ar share = %v, want 50", got)
	}
	var empty Report
	if empty.CritClassPercent(isa.ClassAr) != 0 {
		t.Error("empty report percent should be 0")
	}
}

func TestR0NeverCreatesDependence(t *testing.T) {
	b := buf(
		rec(0, isa.Instr{Op: isa.Add, Rd: 0, Rs1: 5, Rs2: 6}), // writes discarded
		rec(1, isa.Instr{Op: isa.Add, Rd: 2, Rs1: 0, Rs2: 0}), // reads r0
	)
	r := Analyze(b.Reader(), Options{})
	if r.CriticalPath != 1 {
		t.Errorf("critical path = %d, want 1 (no dependence through r0)", r.CriticalPath)
	}
}

// TestUnboundedSchedulerMeetsDataflowLimit pins the identity that ties the
// scheduler to the dataflow limit: config A at width = window = trace
// length + 1 leaves no resource constraint, so core issues its last
// instruction at LatestStart and reports LatestStart+1 cycles. It holds
// under perfect and real branches, on every tracegen profile (three seeds
// each) and on the six workloads at 1/20 of their default scale.
func TestUnboundedSchedulerMeetsDataflowLimit(t *testing.T) {
	type named struct {
		name string
		buf  *trace.Buffer
	}
	var traces []named
	for _, p := range tracegen.Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			traces = append(traces, named{fmt.Sprintf("%s/seed%d", p.Name, seed), trace.Drain(tracegen.NewStream(seed, p))})
		}
	}
	for _, w := range workloads.All() {
		buf, _, err := w.TraceCached(max(1, w.DefaultScale/20))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traces = append(traces, named{w.Name, buf})
	}
	for _, tr := range traces {
		n := int(tr.buf.Len()) + 1
		for _, real := range []bool{false, true} {
			cfg := core.ConfigA
			cfg.PerfectBranches = !real
			res, err := core.RunChecked(context.Background(), tr.buf.Reader(), cfg, core.Params{Width: n, WindowSize: n})
			if err != nil {
				t.Fatalf("%s: %v", tr.name, err)
			}
			rep := Analyze(tr.buf.Reader(), Options{RealBranches: real})
			if res.Cycles != rep.LatestStart+1 {
				t.Errorf("%s, real branches %t: core %d cycles, dataflow limit latest start %d + 1",
					tr.name, real, res.Cycles, rep.LatestStart)
			}
		}
	}
}
