package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bpred"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

// oneCell builds a bank of one over cfg and params.
func oneCell(t testing.TB, cfg Config, params Params) *Bank {
	t.Helper()
	b, err := NewBank([]Cell{{Config: cfg, Params: params}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeAll runs every record of src through b's front end and sizes the
// back ends' store tables for the addresses it interned.
func decodeAll(t testing.TB, b *Bank, src trace.Source) []decoded {
	t.Helper()
	var recs []decoded
	for {
		n, err := b.fe.fill(src, b.buf)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b.buf[:n]...)
		if n < len(b.buf) {
			break
		}
	}
	for _, s := range b.bes {
		s.stores = make([]int64, len(b.fe.addrs))
	}
	return recs
}

// TestBankReportsToAnotherGoroutine: a watchdog reads a wedged bank from
// its own goroutine. While one back end is blocked, Running names it,
// and Finished gives the outcome of a cell that already failed and
// nothing for the cells still to finish.
func TestBankReportsToAnotherGoroutine(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("first cell fails at once")
	reached, wedge := make(chan struct{}), make(chan struct{})
	var checks atomic.Int64
	// Check 0 is cell 0's first record; checks 1..chunkLen are cell 1's
	// first chunk, so check 6 is cell 1's record 5.
	faultinject.ArmFunc(faultinject.PointCoreRun, func() error {
		switch checks.Add(1) - 1 {
		case 0:
			return boom
		case 6:
			close(reached)
			<-wedge
		}
		return nil
	}, 0)
	b, err := NewBank([]Cell{{ConfigA, Params{Width: 4}}, {ConfigD, Params{Width: 8}}, {ConfigC, Params{Width: 4}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan []Outcome)
	go func() {
		outs, _ := b.Run(context.Background(), synthTrace(3*chunkLen).Reader())
		ran <- outs
	}()
	<-reached
	if i := b.Running(); i != 1 {
		t.Errorf("Running() = %d while cell 1 is wedged", i)
	}
	if o, ok := b.Finished(0); !ok || !errors.Is(o.Err, boom) {
		t.Errorf("Finished(0) = %v, %t; want the injected failure", o.Err, ok)
	}
	for _, i := range []int{1, 2} {
		if _, ok := b.Finished(i); ok {
			t.Errorf("Finished(%d) reports an outcome before the cell ended", i)
		}
	}
	close(wedge)
	outs := <-ran
	for i := range outs {
		if _, ok := b.Finished(i); !ok {
			t.Errorf("Finished(%d) has no outcome after Run returned", i)
		}
	}
	if outs[1].Err != nil || outs[2].Err != nil {
		t.Errorf("the bank-mates failed: %v, %v", outs[1].Err, outs[2].Err)
	}
}

// TestUnshareableCellRunsAlone: a cell that supplies its own predictor or
// cache holds state no other back end may touch, so it runs only in a
// bank of one.
func TestUnshareableCellRunsAlone(t *testing.T) {
	own := Cell{ConfigD, Params{Width: 8, Branch: bpred.NewPaper8KB()}}
	if _, err := NewBank([]Cell{own, {ConfigA, Params{Width: 8}}}, 0); !errors.Is(err, ErrUnshareable) {
		t.Fatalf("two-cell bank with a supplied predictor: err = %v, want ErrUnshareable", err)
	}
	if _, err := NewBank([]Cell{own}, 0); err != nil {
		t.Fatalf("bank of one with a supplied predictor: %v", err)
	}
}

// TestFrontEndInternsStoreAddressesOnly: each back end's store table holds
// one entry per interned address, so the front end interns store
// addresses only. A load looks its address up: it shares the ID of an
// earlier store there, and gets -1, no memory dependence, when no store
// to it came before.
func TestFrontEndInternsStoreAddressesOnly(t *testing.T) {
	b := &tb{}
	b.mem(aluImm(isa.Ld, 1, 0, 0x10), 0x10) // no store to 0x10 yet
	b.mem(aluImm(isa.St, 2, 0, 0x20), 0x20)
	b.mem(aluImm(isa.Ld, 3, 0, 0x20), 0x20)
	b.mem(aluImm(isa.St, 2, 0, 0x10), 0x10)
	b.mem(aluImm(isa.Ld, 4, 0, 0x10), 0x10)
	b.mem(aluImm(isa.Ld, 5, 0, 0x30), 0x30) // never stored to
	bank := oneCell(t, ConfigA, Params{Width: 4})
	var ids []int32
	for _, d := range decodeAll(t, bank, b.src()) {
		ids = append(ids, d.addrID)
	}
	if want := []int32{-1, 0, 0, 1, 1, -1}; !slices.Equal(ids, want) {
		t.Errorf("address IDs %v, want %v", ids, want)
	}
	if n := len(bank.fe.addrs); n != 2 {
		t.Errorf("%d addresses interned, want the 2 stored to", n)
	}
}
