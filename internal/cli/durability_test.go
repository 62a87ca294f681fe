package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

func TestOpenStoreFlagContract(t *testing.T) {
	// No store requested: nil store, no error.
	st, err := OpenStore("", false)
	if st != nil || err != nil {
		t.Fatalf("OpenStore(\"\", false) = %v, %v; want nil, nil", st, err)
	}
	// -resume without -store is a usage error.
	if _, err := OpenStore("", true); Code(err) != ExitUsage {
		t.Fatalf("-resume without -store: Code = %d, want %d (%v)", Code(err), ExitUsage, err)
	}
	// -resume over a missing directory is a usage error (nothing to resume).
	missing := t.TempDir() + "/never-created"
	if _, err := OpenStore(missing, true); Code(err) != ExitUsage {
		t.Fatalf("-resume over missing dir: Code = %d, want %d (%v)", Code(err), ExitUsage, err)
	}
	// A fresh -store without -resume creates the directory.
	st, err = OpenStore(t.TempDir()+"/fresh", false)
	if err != nil || st == nil {
		t.Fatalf("fresh store: %v, %v", st, err)
	}
	// -resume over the now-existing directory succeeds.
	if _, err := OpenStore(st.Dir(), true); err != nil {
		t.Fatalf("-resume over existing store: %v", err)
	}
}

// simTrace builds a small synthetic trace for Simulate tests.
func simTrace() *trace.Buffer {
	var buf trace.Buffer
	for i := 0; i < 4096; i++ {
		buf.Append(trace.Record{
			PC:    uint32(i),
			Instr: isa.Instr{Op: isa.Add, Rd: uint8(1 + i%30), Rs1: 1, Rs2: 2},
			Value: int32(i),
		})
	}
	return &buf
}

func simKey(buf *trace.Buffer) store.Key {
	return store.Key{Trace: buf.Hash(), Config: core.ConfigD.Fingerprint(),
		Width: 8, Scale: 1, Workload: "synthetic"}
}

func TestSimulateStoreRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := simTrace()
	opt := SimOptions{Store: st, Key: simKey(buf)}
	src := func() (trace.Source, error) { return buf.Reader(), nil }

	res, fromStore, err := Simulate(context.Background(), opt, core.ConfigD, core.Params{Width: 8}, src)
	if err != nil || fromStore {
		t.Fatalf("cold run: res=%v fromStore=%v err=%v", res, fromStore, err)
	}
	again, fromStore, err := Simulate(context.Background(), opt, core.ConfigD, core.Params{Width: 8}, src)
	if err != nil || !fromStore {
		t.Fatalf("warm run: fromStore=%v err=%v", fromStore, err)
	}
	if again.Cycles != res.Cycles || again.Instructions != res.Instructions {
		t.Fatalf("stored result differs: %+v vs %+v", again, res)
	}
	if s := st.Stats(); s.Hits != 1 || s.Writes != 1 {
		t.Fatalf("store stats %+v, want 1 hit / 1 write", s)
	}
}

func TestSimulateRetriesTransientSource(t *testing.T) {
	buf := simTrace()
	calls := 0
	src := func() (trace.Source, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient stream hiccup")
		}
		return buf.Reader(), nil
	}
	opt := SimOptions{Retries: 2, RetryDelay: time.Millisecond}
	res, _, err := Simulate(context.Background(), opt, core.ConfigD, core.Params{Width: 8}, src)
	if err != nil {
		t.Fatalf("transient source failure not retried: %v", err)
	}
	if calls != 2 || res == nil {
		t.Fatalf("calls = %d, res = %v; want healed on second attempt", calls, res)
	}

	// Exhaustion reports the attempt count.
	always := func() (trace.Source, error) { return nil, errors.New("still broken") }
	_, _, err = Simulate(context.Background(), opt, core.ConfigD, core.Params{Width: 8}, always)
	if err == nil || !strings.Contains(err.Error(), "(3 attempts)") {
		t.Fatalf("exhausted retry does not report attempts: %v", err)
	}
}

func TestSimulateReapsStall(t *testing.T) {
	buf := simTrace()
	wedged := make(chan struct{})
	t.Cleanup(func() { close(wedged) })
	opt := SimOptions{Stall: 60 * time.Millisecond}
	// A Progress hook that blocks forever starves the heartbeat: the
	// watchdog must reap the run as stalled, not hang Simulate.
	params := core.Params{Width: 8}
	first := true
	opt.Progress = func(core.Progress) {
		if first {
			first = false
			<-wedged
		}
	}
	_, _, err := Simulate(context.Background(), opt, core.ConfigD, params,
		func() (trace.Source, error) { return buf.Reader(), nil })
	if !errors.Is(err, watchdog.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if Canceled(err) {
		t.Fatalf("stall misclassified as cancellation: %v", err)
	}
	if Code(err) != ExitSim {
		t.Fatalf("stall exit code = %d, want %d", Code(err), ExitSim)
	}
}

func TestSimulateCancellationIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	buf := simTrace()
	_, _, err := Simulate(ctx, SimOptions{Retries: 3, RetryDelay: time.Millisecond},
		core.ConfigD, core.Params{Width: 8},
		func() (trace.Source, error) { calls++; return buf.Reader(), nil })
	if !Canceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if calls != 1 {
		t.Fatalf("canceled run attempted %d times, want 1", calls)
	}
}

func TestProgressTTYRewritesAndClears(t *testing.T) {
	var buf bytes.Buffer
	hook, done := progressTo(&buf, true, "tool", time.Now)

	hook(core.Progress{Records: 100000, Cycles: 200000})
	hook(core.Progress{Records: 5, Cycles: 9}) // shorter render
	done()

	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("done() did not terminate the line: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\r")
	if len(lines) != 3 || lines[0] != "" { // leading \r splits an empty first element
		t.Fatalf("expected two \\r-rewrites, got %q", out)
	}
	long, short := lines[1], lines[2]
	// The shorter rewrite must be padded out to at least the longer one's
	// width, so no stale characters survive on screen.
	if len(short) < len(long) {
		t.Fatalf("short rewrite %q (len %d) does not clear long render %q (len %d)",
			short, len(short), long, len(long))
	}
	if want := "tool: 5 instructions, 9 cycles"; strings.TrimRight(short, " ") != want {
		t.Fatalf("short rewrite = %q, want %q plus padding", short, want)
	}
}

func TestProgressNonTTYThrottlesFullLines(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	hook, done := progressTo(&buf, false, "tool", now)

	for i := 0; i < 100; i++ {
		hook(core.Progress{Records: int64(i), Cycles: int64(2 * i)})
		clock = clock.Add(100 * time.Millisecond) // 100 beats over 10s
	}
	done()

	out := buf.String()
	if strings.Contains(out, "\r") {
		t.Fatalf("non-TTY progress used carriage returns: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// 10 seconds of beats at one line per 2s: a handful of lines, not 100.
	if len(lines) < 2 || len(lines) > 10 {
		t.Fatalf("non-TTY printed %d lines, want throttled handful: %q", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "tool: ") || !strings.HasSuffix(l, " cycles") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
	if buf.Len() == 0 || strings.HasSuffix(out, "\n\n") {
		t.Fatalf("done() must not add a newline in non-TTY mode: %q", out)
	}
}

// cellCounts parses the counts out of rendered cell-progress lines, which
// must all be well formed.
func cellCounts(t *testing.T, lines []string) []int {
	t.Helper()
	var counts []int
	for _, l := range lines {
		var n int
		if _, err := fmt.Sscanf(strings.TrimRight(l, " "), "tool: %d simulation cell(s) completed", &n); err != nil {
			t.Fatalf("malformed cell progress line %q: %v", l, err)
		}
		counts = append(counts, n)
	}
	return counts
}

// driveCells calls hook the way experiments.Runner's workers call
// OnCellDone: concurrently, each with the running total it just took.
func driveCells(hook func(int), workers, perWorker int) int {
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				hook(int(total.Add(1)))
			}
		}()
	}
	wg.Wait()
	return int(total.Load())
}

func TestCellProgressTTYSerializedAndMonotone(t *testing.T) {
	var buf bytes.Buffer
	hook, done := cellProgressTo(&buf, true, "tool", time.Now)
	total := driveCells(hook, 8, 50)
	done()

	out := buf.String()
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("done() must end the rewritten line with exactly one newline: %q", out)
	}
	renders := strings.Split(strings.TrimSuffix(out, "\n"), "\r")
	if renders[0] != "" {
		t.Fatalf("output does not start with a \\r rewrite: %q", out)
	}
	renders = renders[1:]
	counts := cellCounts(t, renders)
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("count went from %d to %d: the display must never go backwards", counts[i-1], counts[i])
		}
		if len(renders[i]) < len(renders[i-1]) {
			t.Fatalf("rewrite %q does not clear the previous render %q", renders[i], renders[i-1])
		}
	}
	if last := counts[len(counts)-1]; last != total {
		t.Fatalf("last count shown %d, want the total %d", last, total)
	}
}

func TestCellProgressNonTTYThrottledEndsOnTotal(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	// Read under the display's lock only, so a plain variable is race-free:
	// every rendered update is 100ms after the previous one.
	now := func() time.Time {
		clock = clock.Add(100 * time.Millisecond)
		return clock
	}
	hook, done := cellProgressTo(&buf, false, "tool", now)
	total := driveCells(hook, 8, 50)
	done()

	out := buf.String()
	if strings.Contains(out, "\r") {
		t.Fatalf("non-TTY cell progress used carriage returns: %q", out)
	}
	if !strings.HasSuffix(out, "\n") || strings.HasSuffix(out, "\n\n") {
		t.Fatalf("non-TTY output must be whole lines with no blank line: %q", out)
	}
	counts := cellCounts(t, strings.Split(strings.TrimSuffix(out, "\n"), "\n"))
	// At most one line per 2s of the injected clock, plus the final count.
	if len(counts) > total/20+2 {
		t.Fatalf("non-TTY printed %d lines for %d updates, want a throttled handful", len(counts), total)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("count went from %d to %d: the log must never go backwards", counts[i-1], counts[i])
		}
	}
	if last := counts[len(counts)-1]; last != total {
		t.Fatalf("log ends on count %d, want the total %d", last, total)
	}
}
