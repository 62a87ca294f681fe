package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/collapse"
	"repro/internal/isa"
	"repro/internal/stride"
	"repro/internal/trace"
)

// static is everything scheduling needs from one static instruction: the
// front end decodes it once per PC and every back end reads it from each
// dynamic record at that PC, so nothing per record re-derives a read
// list, a latency or a collapse analysis.
type static struct {
	in isa.Instr // the instruction every record at this PC must carry

	// info is the collapse analysis as is ([0]) and with shifts removed
	// from the collapsible set ([1], Config.NoShiftCollapse).
	info [2]collapse.Info

	// reads are the non-R0 source registers; plain drops the collapsible
	// slot registers from them, keeping a store's data register, which is
	// always a plain dependence.
	reads, plain   [3]uint8
	nreads, nplain uint8

	writes int8 // destination register, -1 for none
	lat    int64
	load   bool
	store  bool
	cond   bool // conditional branch

	// slots are the distinct slot registers in first-use order, uses how
	// many of the instruction's slots name each.
	slots  [2]uint8
	uses   [2]int
	nslots int
}

func decodeStatic(in *isa.Instr) *static {
	st := &static{
		in:     *in,
		writes: int8(in.Writes()),
		lat:    int64(isa.Latency(in.Op)),
		load:   in.Op == isa.Ld,
		store:  in.Op == isa.St,
		cond:   in.IsCondBranch(),
	}
	st.info[0] = collapse.Analyze(in)
	st.info[1] = st.info[0]
	if st.info[1].Class == isa.ClassSh {
		st.info[1].Producer, st.info[1].Consumer = false, false
	}
	inf := &st.info[0]
	for _, r := range inf.Slots {
		k := 0
		for k < st.nslots && st.slots[k] != r {
			k++
		}
		if k == st.nslots {
			st.slots[k] = r
			st.nslots++
		}
		st.uses[k]++
	}
	var buf [3]uint8
	for i, r := range in.Reads(buf[:0]) {
		if r == isa.R0 {
			continue
		}
		st.reads[st.nreads] = r
		st.nreads++
		if (st.store && i == 0) || inf.UsesOf(r) == 0 {
			st.plain[st.nplain] = r
			st.nplain++
		}
	}
	return st
}

// decoded is one dynamic record as the back ends consume it: its static
// record, the dynamic values scheduling reads, and what the shared
// predictors made of it.
type decoded struct {
	st         *static
	pc         uint32
	addr       uint32 // load/store effective address
	value      int32  // loaded value (configuration F)
	addrID     int32  // the store table's index for addr; -1 for a load no store precedes
	mispredict bool   // the shared branch predictor mispredicted this branch
	pred       stride.Prediction
}

// maxDenseStatics bounds the dense per-PC table; production programs have
// static sizes in the thousands, so only corrupt input ever crosses it,
// and a wild 32-bit PC then goes to a map instead of forcing a
// multi-gigabyte allocation.
const maxDenseStatics = 1 << 22

// frontEnd does the work that depends on the trace alone, once per record
// for a whole bank: validation, static decode by PC, store-address interning,
// branch prediction and load-address prediction. The predictors are
// shared because every cell that consults them trains them identically:
// every conditional branch updates the branch predictor, every speculative
// configuration updates the stride table on every load, and Lookup is
// pure.
type frontEnd struct {
	dense  []*static
	sparse map[uint32]*static
	addrs  map[uint32]int32

	brc  bpred.Predictor // nil when every back end has perfect branches
	addr AddrPredictor   // nil when no back end speculates on load addresses

	seq int64 // records decoded so far
	rec trace.Record
}

func (fe *frontEnd) lookup(pc uint32) *static {
	if pc >= maxDenseStatics {
		return fe.sparse[pc]
	}
	if int(pc) < len(fe.dense) {
		return fe.dense[pc]
	}
	return nil
}

func (fe *frontEnd) insert(pc uint32, st *static) {
	if pc >= maxDenseStatics {
		if fe.sparse == nil {
			fe.sparse = make(map[uint32]*static)
		}
		fe.sparse[pc] = st
		return
	}
	if int(pc) >= len(fe.dense) {
		fe.dense = append(fe.dense, make([]*static, int(pc)+1-len(fe.dense))...)
	}
	fe.dense[pc] = st
}

// fill reads up to len(buf) records from src and decodes them into buf.
// It returns how many it decoded and the error that stopped it early: a
// record that fails validation. A short count with a nil error means the
// source ended (its own error, if any, is trace.SourceErr's to report).
func (fe *frontEnd) fill(src trace.Source, buf []decoded) (int, error) {
	rec := &fe.rec
	for n := range buf {
		if !src.Next(rec) {
			return n, nil
		}
		st := fe.lookup(rec.PC)
		switch {
		case st == nil:
			if err := validateRecord(rec, fe.seq); err != nil {
				return n, err
			}
			st = decodeStatic(&rec.Instr)
			fe.insert(rec.PC, st)
		case st.in != rec.Instr:
			return n, fmt.Errorf("%w: instruction %d: pc %d carries %+v, an earlier record there carried %+v",
				trace.ErrCorruptRecord, fe.seq, rec.PC, rec.Instr, st.in)
		}
		d := &buf[n]
		*d = decoded{st: st, pc: rec.PC, addr: rec.Addr, value: rec.Value}
		if st.load || st.store {
			id, ok := fe.addrs[rec.Addr]
			switch {
			case ok:
			case st.store:
				id = int32(len(fe.addrs))
				fe.addrs[rec.Addr] = id
			default:
				id = -1 // no store has written the address yet
			}
			d.addrID = id
			if st.load && fe.addr != nil {
				d.pred = fe.addr.Lookup(rec.PC)
				fe.addr.Update(rec.PC, rec.Addr)
			}
		}
		if st.cond && fe.brc != nil {
			d.mispredict = fe.brc.Predict(rec.PC) != rec.Taken
			fe.brc.Update(rec.PC, rec.Taken)
		}
		fe.seq++
	}
	return len(buf), nil
}
