package core

import (
	"context"
	"fmt"

	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

// InvariantError reports a violated scheduler invariant detected by a
// Params.SelfCheck sweep: which invariant, at which cycle and dynamic
// instruction, and what the offending values were. A non-nil InvariantError
// means the simulator's internal state is corrupt and the run's statistics
// cannot be trusted.
type InvariantError struct {
	Invariant string // short invariant name, e.g. "window-occupancy"
	Cycle     int64  // latest issue cycle when the violation was detected
	Seq       int64  // dynamic instruction index when the violation was detected
	Detail    string // human-readable offending values
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %q violated at cycle %d, instruction %d: %s",
		e.Invariant, e.Cycle, e.Seq, e.Detail)
}

// FailureKind declares the invariant kind, which is permanent: the
// scheduler is deterministic, so the same trace and configuration will
// violate the same invariant again.
func (e *InvariantError) FailureKind() failure.Kind { return failure.Invariant }

// ctxCheckMask throttles context polls to one per 1024 instructions, which
// bounds cancellation latency to microseconds without measurable cost on
// the hot loop.
const ctxCheckMask = 1<<10 - 1

// RunChecked is the error-aware, cancellable form of Run. It schedules the
// trace under cfg and params and additionally:
//
//   - propagates the source's deferred stream error (trace.SourceErr): a
//     truncated or corrupt trace fails the run instead of silently
//     producing a shorter one;
//   - validates every record's structure (opcode and register ranges)
//     before it reaches the scheduler, wrapping trace.ErrCorruptRecord;
//   - honors ctx cancellation and deadlines, polled every 1024
//     instructions — width-2048 sweeps stay interruptible;
//   - when params.SelfCheck is set, asserts the scheduler invariants every
//     params.SelfCheckEvery instructions (see (*sched).selfCheck) and
//     returns a structured *InvariantError on the first violation;
//   - when params.Progress is set, emits a heartbeat every
//     params.ProgressEvery instructions (and once at trace end) so
//     watchdogs can distinguish a slow run from a hung one.
//
// On error the returned Result carries the statistics accumulated so far —
// a degraded but inspectable partial result; callers rendering it should
// label it as partial. The error is nil iff the whole trace was scheduled.
func RunChecked(ctx context.Context, src trace.Source, cfg Config, params Params) (*Result, error) {
	return newSched(cfg, params).run(ctx, src)
}

// run is RunChecked's loop over a scheduler the caller built.
func (s *sched) run(ctx context.Context, src trace.Source) (*Result, error) {
	done := ctx.Done()
	nextCheck := int64(s.p.SelfCheckEvery)
	nextProgress := s.p.ProgressEvery
	injecting := faultinject.Enabled()
	var rec trace.Record
	for src.Next(&rec) {
		if err := validateRecord(&rec, s.seq); err != nil {
			return s.finish(), err
		}
		if injecting {
			if err := faultinject.Check(faultinject.PointCoreRun); err != nil {
				return s.finish(), fmt.Errorf("core: scheduling instruction %d: %w", s.seq, err)
			}
		}
		s.visit(&rec)
		if s.err != nil {
			return s.finish(), s.err
		}
		if s.seq&ctxCheckMask == 0 && done != nil {
			select {
			case <-done:
				return s.finish(), fmt.Errorf("core: run canceled after %d instructions: %w", s.seq, ctx.Err())
			default:
			}
		}
		if s.p.SelfCheck && s.seq >= nextCheck {
			nextCheck = s.seq + int64(s.p.SelfCheckEvery)
			s.res.SelfChecks++
			if e := s.selfCheck(); e != nil {
				return s.finish(), e
			}
		}
		if s.p.Progress != nil && s.seq >= nextProgress {
			nextProgress = s.seq + s.p.ProgressEvery
			s.p.Progress(Progress{Records: s.seq, Cycles: s.maxIssue})
		}
	}
	if err := trace.SourceErr(src); err != nil {
		return s.finish(), fmt.Errorf("core: trace source failed after %d records: %w", s.seq, err)
	}
	if s.p.Progress != nil {
		s.p.Progress(Progress{Records: s.seq, Cycles: s.maxIssue})
	}
	if s.p.SelfCheck {
		s.res.SelfChecks++
		if e := s.selfCheck(); e != nil {
			return s.finish(), e
		}
	}
	return s.finish(), nil
}

// validateRecord rejects records no legal SV8 execution can produce before
// they can corrupt scheduler state (an out-of-range register would index
// past the rename table). Errors wrap trace.ErrCorruptRecord so the CLIs
// classify them as corrupt input.
func validateRecord(rec *trace.Record, seq int64) error {
	in := &rec.Instr
	if int(in.Op) >= isa.NumOps {
		return fmt.Errorf("%w: instruction %d: opcode %d out of range", trace.ErrCorruptRecord, seq, in.Op)
	}
	if int(in.Rd) >= isa.NumRegs || int(in.Rs1) >= isa.NumRegs || int(in.Rs2) >= isa.NumRegs {
		return fmt.Errorf("%w: instruction %d: register out of range (rd=%d rs1=%d rs2=%d)",
			trace.ErrCorruptRecord, seq, in.Rd, in.Rs1, in.Rs2)
	}
	return nil
}

// selfCheck sweeps the scheduler invariants. Each sweep is O(window +
// live issue-ring span); SelfCheck mode trades that for the guarantee that
// silent state corruption cannot survive more than SelfCheckEvery
// instructions.
func (s *sched) selfCheck() *InvariantError {
	viol := func(name, format string, args ...any) *InvariantError {
		return &InvariantError{
			Invariant: name,
			Cycle:     s.maxIssue,
			Seq:       s.seq,
			Detail:    fmt.Sprintf(format, args...),
		}
	}

	// No cycle may issue more instructions than the machine width. The
	// issue ring keeps counts only for the live range [base, maxIssue] —
	// dead cycles were validated by earlier sweeps before sliding out.
	w := int32(s.p.Width)
	inWindow := s.ties
	for t := s.issue.base; t <= s.maxIssue; t++ {
		n := s.issue.at(t)
		if n > w || n < 0 {
			return viol("issue-bandwidth", "cycle %d issued %d instructions, width %d", t, n, s.p.Width)
		}
		inWindow += int64(n)
	}
	// The window holds exactly the last WindowSize instructions: the ties
	// at the last freed cycle plus every issue at or above the ring's base.
	if want := min(s.seq, int64(s.p.WindowSize)); s.ties < 0 || inWindow != want {
		return viol("window-occupancy", "%d ties at cycle %d + ring counts over [%d, %d] = %d in window, want %d",
			s.ties, s.issue.base-1, s.issue.base, s.maxIssue, inWindow, want)
	}
	// IPC is bounded by the issue width.
	if s.maxIssue > 0 && s.res.Instructions > int64(s.p.Width)*s.maxIssue {
		return viol("ipc-bound", "%d instructions in %d cycles exceeds width %d",
			s.res.Instructions, s.maxIssue, s.p.Width)
	}
	// Collapse accounting: category counts and size counts are two
	// decompositions of the same group total.
	var byCat, bySize int64
	for _, g := range s.res.Groups {
		byCat += g
	}
	for _, g := range s.res.GroupsBySize {
		bySize += g
	}
	if byCat != bySize {
		return viol("collapse-group-totals", "category sum %d != size sum %d", byCat, bySize)
	}
	// The distance histogram must partition the recorded distances.
	var distN int64
	for _, d := range s.res.DistHist {
		distN += d
	}
	if distN != s.res.DistCount {
		return viol("collapse-distance-histogram", "histogram sum %d != distance count %d", distN, s.res.DistCount)
	}
	// Dynamic distances are at least 1, so their sum bounds their count.
	if s.res.DistSum < s.res.DistCount {
		return viol("collapse-distance-mean", "distance sum %d < count %d implies mean < 1", s.res.DistSum, s.res.DistCount)
	}
	// An instruction participates in a collapse at most once per ring slot.
	if s.res.CollapsedInstrs > s.res.Instructions {
		return viol("collapsed-instruction-count", "%d collapsed > %d executed", s.res.CollapsedInstrs, s.res.Instructions)
	}
	return nil
}
