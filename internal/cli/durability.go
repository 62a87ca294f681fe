package cli

// This file holds the durability and supervision plumbing shared by the
// CLIs: opening the result store behind -store/-resume, printing its
// hit/miss summary, rendering progress heartbeats, and running one
// supervised simulation (store lookup, bounded retry, stall watchdog) for
// the single-run paths.

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/retry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

// progressEvery is the heartbeat interval used when stall supervision is
// armed without an explicit Params.ProgressEvery: fine enough that even a
// slow cell beats many times per stall window.
const progressEvery = 1024

// OpenStore opens the durable result store behind the -store/-resume
// flags. An empty dir with resume unset means "no store" (nil, nil);
// -resume without -store, or over a directory that does not exist yet, is
// a usage error — resuming implies there is something to resume from.
func OpenStore(dir string, resume bool) (*store.Store, error) {
	if dir == "" {
		if resume {
			return nil, Usagef("-resume requires -store")
		}
		return nil, nil
	}
	if resume {
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, Usagef("-resume: store directory %q does not exist", dir)
		}
	}
	return store.Open(dir)
}

// ReportStore prints the store's hit/miss summary to stderr (no-op on a
// nil store). role, when non-empty, names the process's cluster role
// ("worker", "coordinator peers=3") so multi-process logs attribute store
// traffic; the bare format is unchanged when role is empty — the
// resume-smoke CI job greps this line.
func ReportStore(tool, role string, st *store.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	msg := fmt.Sprintf("%s: store: %d hit(s), %d miss(es)", tool, s.Hits, s.Misses)
	if role != "" {
		msg = fmt.Sprintf("%s [%s]: store: %d hit(s), %d miss(es)", tool, role, s.Hits, s.Misses)
	}
	if s.Corrupt > 0 {
		msg += fmt.Sprintf(", %d corrupt entr(y/ies) recomputed", s.Corrupt)
	}
	if s.WriteErrors > 0 {
		msg += fmt.Sprintf(", %d write error(s)", s.WriteErrors)
	}
	if s.TmpCleaned > 0 {
		msg += fmt.Sprintf(", %d stale temp file(s) cleaned", s.TmpCleaned)
	}
	fmt.Fprintln(os.Stderr, msg)
}

// nonTTYProgressEvery throttles progress lines when stderr is not a
// terminal: one newline-terminated line per interval instead of a
// carriage-return rewrite per heartbeat, so CI logs stay readable.
const nonTTYProgressEvery = 2 * time.Second

// statusLine is the one status display behind Progress and CellProgress.
// On a terminal it rewrites one line in place, clearing to end-of-line so
// a render that shrinks never leaves stale trailing characters. When the
// output is redirected (CI logs, pipes) it falls back to newline-terminated
// lines at most once per nonTTYProgressEvery — \r-rewrites would smear
// every update across the captured log — and end prints the latest
// throttled line, so the log finishes on the final count. Writes are
// serialized on mu: callers of render hold it, end takes it itself.
type statusLine struct {
	mu      sync.Mutex
	w       io.Writer
	tty     bool
	now     func() time.Time
	prevLen int       // length of the line on screen; 0 = none (TTY)
	last    time.Time // when the last line was printed (non-TTY)
	pending string    // latest line withheld by the throttle (non-TTY)
}

func (s *statusLine) render(line string) {
	if s.tty {
		// Pad over any leftover from a longer previous render.
		fmt.Fprintf(s.w, "\r%s%s", line, strings.Repeat(" ", max(s.prevLen-len(line), 0)))
		s.prevLen = len(line)
		return
	}
	if t := s.now(); s.last.IsZero() || t.Sub(s.last) >= nonTTYProgressEvery {
		s.last = t
		s.pending = ""
		fmt.Fprintln(s.w, line)
		return
	}
	s.pending = line
}

// end terminates the display: call it once, after the last update.
func (s *statusLine) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.tty && s.prevLen > 0:
		fmt.Fprintln(s.w)
	case !s.tty && s.pending != "":
		fmt.Fprintln(s.w, s.pending)
	}
	s.prevLen, s.pending = 0, ""
}

// Progress returns a heartbeat printer that renders the instruction and
// cycle counts to stderr as a statusLine, plus a done func that terminates
// the output (call it once, after the run).
func Progress(tool string) (hook func(core.Progress), done func()) {
	return progressTo(os.Stderr, stderrIsTTY(), tool, time.Now)
}

// progressTo is Progress with the writer, TTY-ness, and clock injected for
// tests.
func progressTo(w io.Writer, tty bool, tool string, now func() time.Time) (hook func(core.Progress), done func()) {
	s := &statusLine{w: w, tty: tty, now: now}
	hook = func(p core.Progress) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.render(fmt.Sprintf("%s: %d instructions, %d cycles", tool, p.Records, p.Cycles))
	}
	return hook, s.end
}

// CellProgress returns a printer for experiments.Runner.OnCellDone that
// renders the number of completed simulation cells to stderr as a
// statusLine, plus a done func to call once after the sweep. The Runner's
// workers call the printer concurrently and their counts can arrive out of
// order, so a count at or below one already taken is dropped: the display
// never goes backwards.
func CellProgress(tool string) (hook func(done int), done func()) {
	return cellProgressTo(os.Stderr, stderrIsTTY(), tool, time.Now)
}

// cellProgressTo is CellProgress with the writer, TTY-ness, and clock
// injected for tests.
func cellProgressTo(w io.Writer, tty bool, tool string, now func() time.Time) (hook func(int), done func()) {
	s := &statusLine{w: w, tty: tty, now: now}
	high := 0
	hook = func(n int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if n <= high {
			return
		}
		high = n
		s.render(fmt.Sprintf("%s: %d simulation cell(s) completed", tool, n))
	}
	return hook, s.end
}

// stderrIsTTY reports whether stderr is a character device (a terminal
// rather than a pipe or file).
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// SimOptions configures one supervised simulation.
type SimOptions struct {
	Store      *store.Store        // nil = no durability
	Key        store.Key           // identity under which the result persists
	Retries    int                 // transient re-attempts after the first failure
	RetryDelay time.Duration       // base backoff; 0 = retry default
	Stall      time.Duration       // reap the run after this much heartbeat silence; 0 = off
	Progress   func(core.Progress) // optional progress printer (see Progress)
}

// Simulate runs one simulation under the full robustness stack: the store
// is consulted first (a hit skips simulation entirely), then RunChecked
// runs under bounded retry and the stall watchdog, and a fresh success is
// persisted best-effort. src must return a fresh trace.Source per call —
// each retry attempt re-reads the trace from the start. fromStore reports
// whether the result was served from the store; failures carry their
// attempt count when more than one attempt was made.
func Simulate(ctx context.Context, opt SimOptions, cfg core.Config, params core.Params, src func() (trace.Source, error)) (res *core.Result, fromStore bool, err error) {
	if opt.Store != nil {
		if got, gerr := opt.Store.Get(opt.Key); gerr == nil {
			return got, true, nil
		}
		// Any miss — absent, corrupt, version-mismatched — recomputes.
	}
	policy := retry.Policy{MaxAttempts: opt.Retries + 1, BaseDelay: opt.RetryDelay}
	attempts, err := retry.Do(ctx, policy, func(int) error {
		res = nil
		s, serr := src()
		if serr != nil {
			return serr
		}
		// Sources from trace providers may hold a file or a live generation
		// goroutine; release it even when the simulation aborts mid-stream.
		defer trace.CloseSource(s)
		got, rerr := watchdog.Run(ctx, opt.Stall, func(wctx context.Context, beat func()) (*core.Result, error) {
			p := params
			user := opt.Progress
			if opt.Stall > 0 || user != nil {
				p.Progress = func(pr core.Progress) {
					beat()
					if user != nil {
						user(pr)
					}
				}
				if opt.Stall > 0 && p.ProgressEvery == 0 {
					p.ProgressEvery = progressEvery
				}
			}
			return core.RunChecked(wctx, s, cfg, p)
		})
		if rerr != nil {
			return rerr
		}
		res = got
		return nil
	})
	if err != nil {
		if attempts > 1 {
			err = fmt.Errorf("%w (%d attempts)", err, attempts)
		}
		return nil, false, err
	}
	if opt.Store != nil {
		// Best-effort: a failed write costs durability, never the result.
		_ = opt.Store.Put(opt.Key, res)
	}
	return res, false, nil
}
