package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/bpred"
	"repro/internal/faultinject"
	"repro/internal/stride"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

// chunkLen is how many records the front end decodes before the back ends
// schedule them, one back end after another: long enough that each back
// end's clock read and state switch amortize over the chunk, short enough
// that the decoded chunk stays in cache for every back end.
const chunkLen = 256

// Cell is one back end of a Bank: a configuration and its machine.
type Cell struct {
	Config Config
	Params Params
}

// Outcome is what a Bank run gave one cell.
type Outcome struct {
	// Result carries the statistics scheduled so far; it is complete iff
	// Err is nil (see RunChecked).
	Result *Result
	Err    error
	// Seconds is the time attributed to the cell: its back end's own
	// scheduling time plus an equal share, among the cells still running,
	// of the bank's front-end and source time (building the bank and
	// opening its source included). A bank's cells sum to the bank's
	// time, from NewBank to the end of Run.
	Seconds float64
}

// Bank schedules several cells over one pass of a trace. A shared front
// end reads and decodes each record once (static decode by PC, store-address
// interning, branch and load-address prediction: everything the trace
// alone decides), and per-cell back ends schedule the decoded records.
// Each back end runs RunChecked's per-record sequence unchanged, so every
// cell's Result, and the error and Seq of a failing cell, equal those of
// running the cell alone.
//
// A cell failure (an invariant violation, an injected fault, a panic, an
// exceeded budget) ends that cell only; the bank runs on without it. A
// source or front-end error ends every cell still running.
type Bank struct {
	start  time.Time // the bank's time runs from construction
	fe     frontEnd
	bes    []*sched
	buf    []decoded
	budget time.Duration

	outs    []Outcome
	secs    []float64
	done    []atomic.Bool
	running atomic.Int32
}

// ErrUnshareable rejects a multi-cell bank in which a cell supplies its
// own predictor or cache (Params.Branch, Addr, Value or Cache): a
// supplied object is stateful, so such a cell must run in a bank of one.
var ErrUnshareable = errors.New("core: a cell with its own predictor or cache must run in a bank of one")

// NewBank builds a bank over cells. budget, when positive, bounds each
// cell's attributed time: a cell that exceeds it fails with an error
// wrapping context.DeadlineExceeded, and the others run on.
func NewBank(cells []Cell, budget time.Duration) (*Bank, error) {
	b := &Bank{
		start:  time.Now(),
		bes:    make([]*sched, len(cells)),
		buf:    make([]decoded, chunkLen),
		budget: budget,
		outs:   make([]Outcome, len(cells)),
		secs:   make([]float64, len(cells)),
		done:   make([]atomic.Bool, len(cells)),
	}
	b.fe.addrs = make(map[uint32]int32, 1<<12)
	b.running.Store(-1)
	for i, c := range cells {
		p := c.Params
		if len(cells) > 1 && (p.Branch != nil || p.Addr != nil || p.Value != nil || p.Cache != nil) {
			return nil, ErrUnshareable
		}
		b.bes[i] = newSched(c.Config, p)
		// The front end runs a predictor only if some back end reads it:
		// the cell's own in a bank of one, else the paper's default.
		if b.fe.brc == nil && !c.Config.PerfectBranches {
			b.fe.brc = p.Branch
			if b.fe.brc == nil {
				b.fe.brc = bpred.NewPaper8KB()
			}
		}
		if b.fe.addr == nil && c.Config.speculative() {
			b.fe.addr = p.Addr
			if b.fe.addr == nil {
				b.fe.addr = stride.NewPaper()
			}
		}
	}
	return b, nil
}

// Running reports the index of the cell whose back end is scheduling
// right now, or -1 while the front end is. It is safe to call from any
// goroutine: a watchdog that reaps a wedged bank uses it to blame the
// cell that was running.
func (b *Bank) Running() int { return int(b.running.Load()) }

// Finished reports cell i's outcome once its back end has finished, and
// false before that. Like Running it is safe from any goroutine.
func (b *Bank) Finished(i int) (Outcome, bool) {
	if !b.done[i].Load() {
		return Outcome{}, false
	}
	return b.outs[i], true
}

// Run schedules the trace through every cell and returns each cell's
// outcome, in cell order, with the bank-wide error, if any, that ended
// the cells still running: a record that failed validation or the
// source's deferred error. A Bank runs once.
func (b *Bank) Run(ctx context.Context, src trace.Source) ([]Outcome, error) {
	done := ctx.Done()
	injecting := faultinject.Enabled()
	live := make([]int, len(b.bes))
	for i := range live {
		live[i] = i
	}
	// lap reads the clock once and returns the seconds since the last
	// reading, so the laps partition the bank's time. The first lap
	// counts building the bank and opening its source as shared time.
	t := b.start
	lap := func() float64 {
		now := time.Now()
		d := now.Sub(t).Seconds()
		t = now
		return d
	}
	var bankErr error
	for len(live) > 0 {
		n, ferr := b.fe.fill(src, b.buf)
		share := lap() / float64(len(live))
		for _, i := range live {
			b.secs[i] += share
		}
		kept := live[:0]
		for _, i := range live {
			b.running.Store(int32(i))
			err := b.schedule(i, ctx, done, injecting, b.buf[:n])
			b.secs[i] += lap()
			if err == nil && b.budget > 0 && b.secs[i] > b.budget.Seconds() {
				err = fmt.Errorf("core: cell exceeded its %v budget after %d instructions: %w",
					b.budget, b.bes[i].seq, context.DeadlineExceeded)
			}
			if err != nil {
				b.finish(i, err)
				continue
			}
			kept = append(kept, i)
		}
		b.running.Store(-1)
		live = kept
		if ferr != nil {
			bankErr = ferr
			break
		}
		if n < len(b.buf) {
			if err := trace.SourceErr(src); err != nil {
				bankErr = fmt.Errorf("core: trace source failed after %d records: %w", b.fe.seq, err)
			}
			break
		}
	}
	for _, i := range live {
		err := bankErr
		if err == nil {
			b.running.Store(int32(i))
			err = b.tail(i)
			b.running.Store(-1)
		}
		b.secs[i] += lap()
		b.finish(i, err)
	}
	return b.outs, bankErr
}

// schedule runs one back end over a chunk of decoded records, with
// RunChecked's per-record sequence: the fault point, the visit, the
// visit's own error, the context poll, the invariant sweep and the
// heartbeat. A panic fails the cell, not the bank.
func (b *Bank) schedule(i int, ctx context.Context, done <-chan struct{}, injecting bool, recs []decoded) (err error) {
	defer recovered(&err)
	s := b.bes[i]
	if need := len(b.fe.addrs); len(s.stores) < need {
		s.stores = append(s.stores, make([]int64, need-len(s.stores))...)
	}
	for k := range recs {
		if injecting {
			if err := faultinject.Check(faultinject.PointCoreRun); err != nil {
				return fmt.Errorf("core: scheduling instruction %d: %w", s.seq, err)
			}
		}
		s.visit(&recs[k])
		if s.err != nil {
			return s.err
		}
		if s.seq&ctxCheckMask == 0 && done != nil {
			select {
			case <-done:
				return fmt.Errorf("core: run canceled after %d instructions: %w", s.seq, ctx.Err())
			default:
			}
		}
		if s.p.SelfCheck && s.seq >= s.nextCheck {
			s.nextCheck = s.seq + int64(s.p.SelfCheckEvery)
			s.res.SelfChecks++
			if e := s.selfCheck(); e != nil {
				return e
			}
		}
		if s.p.Progress != nil && s.seq >= s.nextProgress {
			s.nextProgress = s.seq + s.p.ProgressEvery
			s.p.Progress(Progress{Records: s.seq, Cycles: s.maxIssue})
		}
	}
	return nil
}

// tail ends a back end that scheduled the whole trace: the last heartbeat
// and the last invariant sweep.
func (b *Bank) tail(i int) (err error) {
	defer recovered(&err)
	s := b.bes[i]
	if s.p.Progress != nil {
		s.p.Progress(Progress{Records: s.seq, Cycles: s.maxIssue})
	}
	if s.p.SelfCheck {
		s.res.SelfChecks++
		if e := s.selfCheck(); e != nil {
			return e
		}
	}
	return nil
}

// recovered, deferred by a back end's step, turns a panic into that
// cell's error.
func recovered(err *error) {
	if r := recover(); r != nil {
		*err = &watchdog.PanicError{Value: r, Stack: string(debug.Stack())}
	}
}

// finish seals cell i's outcome and publishes it to Finished.
func (b *Bank) finish(i int, err error) {
	b.outs[i] = Outcome{Result: b.bes[i].finish(), Err: err, Seconds: b.secs[i]}
	b.done[i].Store(true)
}

// RunChecked is the error-aware, cancellable form of Run: a bank of one.
// It schedules the trace under cfg and params and additionally:
//
//   - propagates the source's deferred stream error (trace.SourceErr): a
//     truncated or corrupt trace fails the run instead of silently
//     producing a shorter one;
//   - validates the structure (opcode and register ranges) of the first
//     record at each PC before it reaches the scheduler, and fails a
//     record whose instruction contradicts the one first seen at its PC;
//     both errors wrap trace.ErrCorruptRecord;
//   - honors ctx cancellation and deadlines, polled every 1024
//     instructions — width-2048 sweeps stay interruptible;
//   - when params.SelfCheck is set, asserts the scheduler invariants every
//     params.SelfCheckEvery instructions (see (*sched).selfCheck) and
//     returns a structured *InvariantError on the first violation;
//   - when params.Progress is set, emits a heartbeat every
//     params.ProgressEvery instructions (and once at trace end) so
//     watchdogs can distinguish a slow run from a hung one;
//   - returns a panic raised while scheduling as a *watchdog.PanicError.
//
// On error the returned Result carries the statistics accumulated so far —
// a degraded but inspectable partial result; callers rendering it should
// label it as partial. The error is nil iff the whole trace was scheduled.
func RunChecked(ctx context.Context, src trace.Source, cfg Config, params Params) (*Result, error) {
	b, err := NewBank([]Cell{{Config: cfg, Params: params}}, 0)
	if err != nil {
		return nil, err
	}
	outs, _ := b.Run(ctx, src)
	return outs[0].Result, outs[0].Err
}
