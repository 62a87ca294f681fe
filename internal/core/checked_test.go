package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

// synthTrace builds a mixed synthetic trace long enough to cross the
// context-poll and self-check strides.
func synthTrace(n int) *trace.Buffer {
	b := &tb{}
	b.add(ldi(1, 0))
	b.add(ldi(2, 64))
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			b.add(aluImm(isa.Add, 1, 1, 1))
		case 1:
			b.add(alu(isa.Xor, 3, 1, 2))
		case 2:
			b.mem(isa.Instr{Op: isa.Ld, Rd: 4, Rs1: 2, HasImm: true, Imm: 4}, uint32(64+4*(i%8)))
		case 3:
			b.add(aluImm(isa.Cmp, 0, 1, 100))
		case 4:
			b.branch(isa.Instr{Op: isa.Bne, Target: int32(i)}, i%3 == 0)
		}
	}
	return &b.buf
}

// seekBuffer is an in-memory io.WriteSeeker so tests can produce counted
// binary trace images (the Writer patches the header count on Close only
// for seekable outputs).
type seekBuffer struct {
	b   []byte
	pos int
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if need := s.pos + len(p); need > len(s.b) {
		s.b = append(s.b, make([]byte, need-len(s.b))...)
	}
	copy(s.b[s.pos:], p)
	s.pos += len(p)
	return len(p), nil
}

func (s *seekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		s.pos = int(off)
	case 1:
		s.pos += int(off)
	case 2:
		s.pos = len(s.b) + int(off)
	}
	return int64(s.pos), nil
}

// traceImage encodes buf into a counted binary trace image.
func traceImage(t *testing.T, buf *trace.Buffer) []byte {
	t.Helper()
	var sb seekBuffer
	w, err := trace.NewWriter(&sb)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	src := buf.Reader()
	for src.Next(&rec) {
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.b
}

func TestRunCheckedMatchesRun(t *testing.T) {
	buf := synthTrace(3000)
	for _, cfg := range Configs() {
		plain := Run(buf.Reader(), cfg, Params{Width: 8})
		checked, err := RunChecked(context.Background(), buf.Reader(), cfg, Params{Width: 8})
		if err != nil {
			t.Fatalf("config %s: %v", cfg.Name, err)
		}
		if plain.Cycles != checked.Cycles || plain.Instructions != checked.Instructions {
			t.Errorf("config %s: RunChecked (%d instr, %d cycles) != Run (%d instr, %d cycles)",
				cfg.Name, checked.Instructions, checked.Cycles, plain.Instructions, plain.Cycles)
		}
	}
}

// TestRunCheckedSurfacesTruncation is the regression test for the silent-
// truncation bug: the scheduler used to ignore Source.Err, so a binary
// trace cut mid-stream simulated as a clean short trace.
func TestRunCheckedSurfacesTruncation(t *testing.T) {
	img := traceImage(t, synthTrace(400))
	cut := img[:len(img)-trace.RecordSize-7] // mid-record, short of the count

	r, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunChecked(context.Background(), r, ConfigD, Params{Width: 8})
	if err == nil {
		t.Fatal("RunChecked accepted a truncated trace")
	}
	if !errors.Is(err, trace.ErrTruncated) {
		t.Errorf("error does not wrap ErrTruncated: %v", err)
	}
	if !trace.IsCorrupt(err) {
		t.Errorf("truncation not classified as corrupt input: %v", err)
	}
	if res == nil || res.Instructions == 0 {
		t.Error("partial result missing despite records scheduled before the cut")
	}
}

func TestRunCheckedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunChecked(ctx, synthTrace(5000).Reader(), ConfigD, Params{Width: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCheckedSelfCheckPasses(t *testing.T) {
	for _, cfg := range Configs() {
		res, err := RunChecked(context.Background(), synthTrace(20000).Reader(), cfg,
			Params{Width: 8, SelfCheck: true, SelfCheckEvery: 512})
		if err != nil {
			t.Fatalf("config %s: self-check failed: %v", cfg.Name, err)
		}
		if res.SelfChecks == 0 {
			t.Fatalf("config %s: no invariant sweeps ran", cfg.Name)
		}
	}
}

func TestRunCheckedRejectsWildRecords(t *testing.T) {
	cases := map[string]trace.Record{
		"opcode":   {Instr: isa.Instr{Op: isa.Op(isa.NumOps + 3), Rd: 1}},
		"register": {Instr: isa.Instr{Op: isa.Add, Rd: 200, Rs1: 1}},
	}
	for name, bad := range cases {
		var buf trace.Buffer
		buf.Append(trace.Record{Instr: isa.Instr{Op: isa.Ldi, Rd: 1, HasImm: true}})
		buf.Append(bad)
		_, err := RunChecked(context.Background(), buf.Reader(), ConfigD, Params{Width: 8})
		if !errors.Is(err, trace.ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
	}
}

func TestRunCheckedInjectedStreamFault(t *testing.T) {
	src := faultinject.New(synthTrace(500).Reader(), faultinject.Plan{
		Kind: faultinject.FaultDelayedErr, At: 100,
	})
	_, err := RunChecked(context.Background(), src, ConfigD, Params{Width: 8})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
}

func TestRunCheckedInjectionPoint(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("boom")
	faultinject.Arm(faultinject.PointCoreRun, boom, 50)
	_, err := RunChecked(context.Background(), synthTrace(500).Reader(), ConfigD, Params{Width: 8})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected boom", err)
	}

	faultinject.Reset()
	if _, err := RunChecked(context.Background(), synthTrace(500).Reader(), ConfigD, Params{Width: 8}); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestInvariantErrorMessage(t *testing.T) {
	e := &InvariantError{Invariant: "window-occupancy", Cycle: 7, Seq: 42, Detail: "window holds 33, capacity 32"}
	msg := e.Error()
	for _, want := range []string{"window-occupancy", "cycle 7", "instruction 42", "window holds 33"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

// TestRunIsRunCheckedWrapper pins the compatibility contract: Run is the
// error-discarding wrapper over RunChecked.
func TestRunIsRunCheckedWrapper(t *testing.T) {
	buf := synthTrace(100)
	plain := Run(buf.Reader(), ConfigA, Params{Width: 4})
	checked, err := RunChecked(context.Background(), buf.Reader(), ConfigA, Params{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != checked.Cycles {
		t.Errorf("Run cycles %d != RunChecked cycles %d", plain.Cycles, checked.Cycles)
	}
}

// TestContradictingPCIsCorrupt: a trace whose record carries another
// instruction than an earlier record at the same PC is no execution's
// trace. The run fails with trace.ErrCorruptRecord once it reaches that
// record, instead of scheduling it under the first record's analysis.
func TestContradictingPCIsCorrupt(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 0))
	b.add(aluImm(isa.Add, 1, 1, 1))
	b.raw(1, aluImm(isa.Sub, 1, 1, 1), 0, false)
	b.add(aluImm(isa.Add, 1, 1, 1))
	res, err := RunChecked(context.Background(), b.src(), ConfigD, Params{Width: 4})
	if !errors.Is(err, trace.ErrCorruptRecord) {
		t.Fatalf("err = %v, want trace.ErrCorruptRecord", err)
	}
	if res.Instructions != 2 {
		t.Fatalf("scheduled %d instructions before failing, want the 2 before the contradiction", res.Instructions)
	}
}
