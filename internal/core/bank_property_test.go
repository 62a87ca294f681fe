package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workloads"
)

// randomCells draws a random subset of the oracle's conformance grid:
// configurations A-F and the ablations, each width and window depth.
func randomCells(rng *rand.Rand, n int) []core.Cell {
	g := oracle.DefaultGrid()
	cells := make([]core.Cell, n)
	for i := range cells {
		cells[i] = core.Cell{
			Config: g.Configs[rng.Intn(len(g.Configs))],
			Params: core.Params{
				Width:      g.Widths[rng.Intn(len(g.Widths))],
				WindowSize: g.Windows[rng.Intn(len(g.Windows))],
				SelfCheck:  rng.Intn(2) == 0,
			},
		}
	}
	return cells
}

// bankTrace generates a tracegen trace several chunks long.
func bankTrace(rng *rand.Rand, seed int64) *trace.Buffer {
	profiles := tracegen.Profiles()
	p := profiles[int(seed)%len(profiles)]
	p.Records = 2*core.ChunkLen + rng.Intn(6*core.ChunkLen)
	return tracegen.Gen(seed, p)
}

// runBank runs cells as one bank over buf.
func runBank(t *testing.T, buf *trace.Buffer, cells []core.Cell) []core.Outcome {
	t.Helper()
	b, err := core.NewBank(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := b.Run(context.Background(), buf.Reader())
	return outs
}

// sameOutcome fails unless a banked cell's Result and error equal the
// cell's own run.
func sameOutcome(t *testing.T, what string, got core.Outcome, want *core.Result, werr error) {
	t.Helper()
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("%s: banked Result differs from the cell's own run: %v", what, want.Diff(got.Result))
	}
	if (got.Err == nil) != (werr == nil) || (werr != nil && got.Err.Error() != werr.Error()) {
		t.Errorf("%s: banked error %v, the cell's own run %v", what, got.Err, werr)
	}
}

// TestBankEqualsItsCells is the bank's property test: over tracegen
// traces and random subsets of the oracle's grid, every cell of a bank
// gives exactly the Result (reflect.DeepEqual) and error that
// RunChecked gives the cell alone. Tracegen's load values are random,
// so no value predictor ever grows confident; the workloads' traces,
// whose values repeat, run in banks holding configuration F twice, and
// the two must keep private predictors.
func TestBankEqualsItsCells(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var bufs []*trace.Buffer
	for seed := int64(0); seed < 30; seed++ {
		bufs = append(bufs, bankTrace(rng, seed))
	}
	for _, w := range workloads.All() {
		buf, _, err := w.TraceCached(w.DefaultScale / 20)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf)
	}
	for k, buf := range bufs {
		cells := randomCells(rng, 1+rng.Intn(12))
		if k >= 30 {
			f := core.Cell{Config: core.ConfigF, Params: core.Params{Width: 8}}
			cells = append(cells, f, f)
		}
		for i, o := range runBank(t, buf, cells) {
			c := cells[i]
			want, werr := core.RunChecked(context.Background(), buf.Reader(), c.Config, c.Params)
			sameOutcome(t, c.Config.Name, o, want, werr)
		}
	}
}

// TestBankCellFailsAlone: one back end fails partway through the trace,
// by an injected scheduler fault or by a corrupted window under
// SelfCheck. That cell gets the error, at the same instruction, that its
// own run gets, and its bank-mates are unaffected.
func TestBankCellFailsAlone(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(23))
	for seed := int64(0); seed < 12; seed++ {
		buf := bankTrace(rng, seed)
		cells := randomCells(rng, 2+rng.Intn(8))
		victim := rng.Intn(len(cells))
		// A record in a full chunk: the fault point's checks run chunk by
		// chunk, back end by back end.
		at := rng.Intn(buf.Len() / core.ChunkLen * core.ChunkLen)
		chunk, off := at/core.ChunkLen, at%core.ChunkLen

		var outs []core.Outcome
		var want *core.Result
		var werr error
		if seed%2 == 0 {
			boom := errors.New("injected scheduler fault")
			faultinject.ArmOnce(faultinject.PointCoreRun, boom,
				int64(chunk*core.ChunkLen*len(cells)+victim*core.ChunkLen+off))
			outs = runBank(t, buf, cells)
			faultinject.ArmOnce(faultinject.PointCoreRun, boom, int64(at))
			c := cells[victim]
			want, werr = core.RunChecked(context.Background(), buf.Reader(), c.Config, c.Params)
			faultinject.Reset()
		} else {
			// The victim's heartbeat at record at corrupts its window
			// just before it schedules that record.
			corrupt := func(b **core.Bank, i int) core.Params {
				p := cells[victim].Params
				p.SelfCheck, p.SelfCheckEvery = true, 1
				p.ProgressEvery = int64(max(at, 1))
				p.Progress = func(pr core.Progress) {
					if pr.Records == p.ProgressEvery {
						(*b).CorruptWindow(i)
					}
				}
				return p
			}
			var bank, alone *core.Bank
			cells[victim].Params = corrupt(&bank, victim)
			bank, _ = core.NewBank(cells, 0)
			outs, _ = bank.Run(context.Background(), buf.Reader())
			alone, _ = core.NewBank([]core.Cell{{Config: cells[victim].Config, Params: corrupt(&alone, 0)}}, 0)
			own, _ := alone.Run(context.Background(), buf.Reader())
			want, werr = own[0].Result, own[0].Err
			var ie *core.InvariantError
			if !errors.As(werr, &ie) {
				t.Fatalf("seed %d: the corrupted run returned %v, want an *InvariantError", seed, werr)
			}
		}
		if werr == nil {
			t.Fatalf("seed %d: the victim's own run did not fail", seed)
		}
		sameOutcome(t, "victim", outs[victim], want, werr)
		if !reflect.DeepEqual(outs[victim].Err, werr) {
			t.Errorf("seed %d: victim error %#v, own run %#v", seed, outs[victim].Err, werr)
		}
		for i, c := range cells {
			if i == victim {
				continue
			}
			mate, merr := core.RunChecked(context.Background(), buf.Reader(), c.Config, c.Params)
			sameOutcome(t, "bank-mate", outs[i], mate, merr)
		}
	}
}

// TestBankFailsOnContradictingPC: a record whose instruction contradicts
// the one an earlier record carried at the same PC is corrupt input; the
// whole bank fails with trace.ErrCorruptRecord after scheduling the
// records before it, as each cell alone does.
func TestBankFailsOnContradictingPC(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	buf := bankTrace(rng, 3)
	bad := &trace.Buffer{}
	at := buf.Len() / 2
	var first *trace.Record
	for i := 0; i < buf.Len(); i++ {
		rec := *buf.At(i)
		if i < at && first == nil && rec.Instr.Op != isa.Nop {
			first = buf.At(i)
		}
		if i == at {
			rec.PC, rec.Instr = first.PC, isa.Instr{Op: isa.Nop}
		}
		bad.Append(rec)
	}
	cells := randomCells(rng, 6)
	b, err := core.NewBank(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	outs, bankErr := b.Run(context.Background(), bad.Reader())
	if !errors.Is(bankErr, trace.ErrCorruptRecord) {
		t.Fatalf("bank error %v, want trace.ErrCorruptRecord", bankErr)
	}
	for i, c := range cells {
		want, werr := core.RunChecked(context.Background(), bad.Reader(), c.Config, c.Params)
		if !errors.Is(werr, trace.ErrCorruptRecord) {
			t.Fatalf("%s alone: error %v, want trace.ErrCorruptRecord", c.Config.Name, werr)
		}
		if want.Instructions != int64(at) {
			t.Errorf("%s alone scheduled %d records, want the %d before the corrupt one", c.Config.Name, want.Instructions, at)
		}
		sameOutcome(t, c.Config.Name, outs[i], want, werr)
	}
}
