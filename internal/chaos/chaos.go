// Package chaos is the seeded soak harness for the serving layer
// (internal/server): it drives a real HTTP server through randomized fault
// schedules — transient cell errors, panicking cells, failing store I/O,
// slow-cell overload — and asserts the robustness contract from
// docs/robustness.md §7 on every schedule:
//
//   - every admitted job reaches a terminal state (no hangs: every HTTP
//     call runs under a client timeout);
//   - every shed request is an immediate 429 with Retry-After, never a
//     queue wait;
//   - the process survives panicking cells, and /healthz stays parseable
//     throughout;
//   - drain completes cleanly and the worker pool's goroutines are gone
//     afterwards (leak check against a pre-server baseline);
//
// and once per campaign: a sweep interrupted by a drain and resumed from
// the durable store by a second server renders byte-identically to the
// same sweep run uninterrupted on a fresh store.
//
// Everything is deterministic per (Seed, Schedules): the same campaign
// replays the same faults.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// Options configures a campaign.
type Options struct {
	// Seed makes the campaign reproducible; schedule i derives its own rng
	// from it.
	Seed int64
	// Schedules is the number of randomized fault schedules; <= 0 means 64.
	Schedules int
	// Dir is the scratch directory for durable stores; "" means a fresh
	// temp dir, removed afterwards.
	Dir string
	// Log, when non-nil, receives one line per schedule.
	Log func(format string, args ...any)
}

// Summary is the campaign outcome.
type Summary struct {
	Schedules  int            `json:"schedules"`
	Submitted  int            `json:"submitted"`
	Accepted   int            `json:"accepted"`
	Shed       int            `json:"shed"`
	Done       int            `json:"done"`
	Failed     int            `json:"failed"`
	FailKinds  map[string]int `json:"fail_kinds"`
	ResumeOK   bool           `json:"resume_ok"`
	Violations []string       `json:"violations,omitempty"`
}

// fault kinds a schedule draws from, rotated so every campaign of >= 4
// schedules exercises all of them.
const (
	faultTransient = iota // injected errors at the cell entry point
	faultPanic            // panicking cells (isolation + quarantine)
	faultStore            // failing store I/O (circuit breaker)
	faultOverload         // slow cells + submission burst (load shedding)
	numFaultKinds
)

var faultName = [...]string{"transient", "panic", "store", "overload"}

// Run executes the campaign and returns its Summary. The error is non-nil
// iff any schedule violated an invariant (the violations are also in the
// Summary).
func Run(opt Options) (*Summary, error) {
	if opt.Schedules <= 0 {
		opt.Schedules = 64
	}
	if opt.Log == nil {
		opt.Log = func(string, ...any) {}
	}
	if opt.Dir == "" {
		dir, err := os.MkdirTemp("", "ddserve-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opt.Dir = dir
	}
	defer faultinject.Reset()

	sum := &Summary{Schedules: opt.Schedules, FailKinds: make(map[string]int)}
	for i := 0; i < opt.Schedules; i++ {
		kind := i % numFaultKinds
		vs := runSchedule(i, kind, opt, sum)
		status := "ok"
		if len(vs) > 0 {
			status = strings.Join(vs, "; ")
		}
		opt.Log("chaos: schedule %d/%d (%s): %s", i+1, opt.Schedules, faultName[kind], status)
		for _, v := range vs {
			sum.Violations = append(sum.Violations, fmt.Sprintf("schedule %d (%s): %s", i, faultName[kind], v))
		}
	}

	if v := checkResume(opt); v != "" {
		sum.Violations = append(sum.Violations, "resume: "+v)
	} else {
		sum.ResumeOK = true
	}
	opt.Log("chaos: resume check: ok=%v", sum.ResumeOK)

	if len(sum.Violations) > 0 {
		return sum, fmt.Errorf("chaos: %d invariant violation(s); first: %s",
			len(sum.Violations), sum.Violations[0])
	}
	return sum, nil
}

// client wraps http with a hard timeout: any endpoint that hangs turns
// into a violation instead of wedging the campaign.
type client struct {
	base string
	c    *http.Client
}

func newClient(base string) *client {
	return &client{base: base, c: &http.Client{Timeout: 15 * time.Second}}
}

func (c *client) post(path string, body any) (int, []byte, http.Header, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.c.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, buf.Bytes(), resp.Header, nil
}

func (c *client) get(path string, out any) (int, error) {
	resp, err := c.c.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// specPool is the grid chaos jobs are drawn from. Small workloads only —
// the server runs them at a reduced scale, so cells cost milliseconds.
var (
	poolWorkloads = []string{"compress", "espresso", "li"}
	poolConfigs   = []string{"A", "B", "D", "E"}
	poolWidths    = []int{2, 4, 8}
)

func randomSpec(rng *rand.Rand) server.JobSpec {
	return server.JobSpec{
		Workload:  poolWorkloads[rng.Intn(len(poolWorkloads))],
		Config:    poolConfigs[rng.Intn(len(poolConfigs))],
		Width:     poolWidths[rng.Intn(len(poolWidths))],
		SelfCheck: rng.Intn(8) == 0,
	}
}

var errInjected = errors.New("chaos: injected fault")

// armFaults installs schedule i's fault plan and reports whether the
// schedule needs a durable store (store faults are meaningless without
// one).
func armFaults(kind int, rng *rand.Rand) (wantStore bool) {
	switch kind {
	case faultTransient:
		// Errors at the cell entry point: persistent or one-shot, after a
		// few clean passes. Jobs fail with the sim kind (or succeed after a
		// retry) — but always terminate.
		after := int64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			faultinject.Arm(faultinject.PointExperiment, errInjected, after)
		} else {
			faultinject.ArmOnce(faultinject.PointExperiment, errInjected, after)
		}
	case faultPanic:
		// Every cell compute panics. The process must survive: panics are
		// isolated into the panic kind and repeat offenders quarantined.
		faultinject.ArmFunc(faultinject.PointCoreRun, func() error {
			panic("chaos: injected cell panic")
		}, int64(rng.Intn(3)))
	case faultStore:
		// A failing disk: reads and writes error behind the breaker. Jobs
		// must still succeed — the breaker degrades durability, never
		// results.
		faultinject.Arm(faultinject.PointStoreGet, errInjected, int64(rng.Intn(3)))
		faultinject.Arm(faultinject.PointStorePut, errInjected, 0)
		return true
	case faultOverload:
		// Slow cells: every compute sleeps, so a submission burst overruns
		// the queue and admission control must shed.
		delay := time.Duration(20+rng.Intn(40)) * time.Millisecond
		faultinject.ArmFunc(faultinject.PointExperiment, func() error {
			time.Sleep(delay)
			return nil
		}, 0)
	}
	return false
}

func runSchedule(i, kind int, opt Options, sum *Summary) (violations []string) {
	rng := rand.New(rand.NewSource(opt.Seed + int64(i)*7919))
	faultinject.Reset()
	defer faultinject.Reset()

	baseline := runtime.NumGoroutine()

	srvOpt := server.Options{
		Workers:          1 + rng.Intn(3),
		QueueDepth:       3 + rng.Intn(6),
		Scale:            40 + rng.Intn(40),
		Retries:          rng.Intn(2),
		QuarantineAfter:  2,
		DefaultDeadline:  30 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
	}
	if rng.Intn(2) == 0 {
		srvOpt.StallTimeout = 5 * time.Second
	}
	if armFaults(kind, rng) {
		st, err := store.Open(filepath.Join(opt.Dir, fmt.Sprintf("sched-%d", i)))
		if err != nil {
			return []string{"store open: " + err.Error()}
		}
		srvOpt.Store = st
	}

	srv := server.New(srvOpt)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	c := newClient(ts.URL)
	acceptedBefore := sum.Accepted

	// Submission burst. Oversize it relative to the queue on overload
	// schedules so shedding is guaranteed.
	n := srvOpt.QueueDepth + 2 + rng.Intn(8)
	if kind == faultOverload {
		n = srvOpt.QueueDepth*3 + 8
	}
	var ids []string
	shedHere := 0
	for j := 0; j < n; j++ {
		sum.Submitted++
		code, body, hdr, err := c.post("/jobs", randomSpec(rng))
		switch {
		case err != nil:
			violations = append(violations, "submit: "+err.Error())
		case code == http.StatusAccepted:
			var job server.Job
			if jerr := json.Unmarshal(body, &job); jerr != nil || job.ID == "" {
				violations = append(violations, fmt.Sprintf("202 with unparseable job doc: %s", body))
				continue
			}
			ids = append(ids, job.ID)
			sum.Accepted++
		case code == http.StatusTooManyRequests:
			if hdr.Get("Retry-After") == "" {
				violations = append(violations, "429 without Retry-After")
			}
			shedHere++
			sum.Shed++
		default:
			violations = append(violations, fmt.Sprintf("submission got %d: %s", code, body))
		}
	}
	if kind == faultOverload && shedHere == 0 {
		violations = append(violations, "overload burst was never shed")
	}

	// Every admitted job must reach a terminal state.
	deadline := time.Now().Add(90 * time.Second)
	for _, id := range ids {
		for {
			var job server.Job
			code, err := c.get("/jobs/"+id, &job)
			if err != nil || code != http.StatusOK {
				violations = append(violations, fmt.Sprintf("get %s: code %d err %v", id, code, err))
				break
			}
			if job.State.Terminal() {
				switch job.State {
				case server.StateDone:
					sum.Done++
					if job.Result == nil || job.Result.IPC <= 0 {
						violations = append(violations, id+": done without a plausible result")
					}
				case server.StateFailed:
					sum.Failed++
					if job.Error == nil || job.Error.Kind == "" {
						violations = append(violations, id+": failed without a structured error")
					} else {
						sum.FailKinds[string(job.Error.Kind)]++
					}
				default:
					violations = append(violations, id+": canceled before any drain began")
				}
				break
			}
			if time.Now().After(deadline) {
				violations = append(violations, id+": never reached a terminal state")
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// healthz must stay parseable under every fault schedule.
	var h server.Health
	if code, err := c.get("/healthz", &h); err != nil || code != http.StatusOK {
		violations = append(violations, fmt.Sprintf("healthz: code %d err %v", code, err))
	} else if h.State != "serving" {
		violations = append(violations, "healthz state = "+h.State)
	}

	// Drain must complete cleanly (all jobs are terminal already).
	drainCtx, cancel := contextWithTimeout(60 * time.Second)
	err := srv.Drain(drainCtx)
	cancel()
	if err != nil {
		violations = append(violations, "drain: "+err.Error())
	}
	if code, _, _, err := c.post("/jobs", randomSpec(rng)); err != nil || code != http.StatusServiceUnavailable {
		violations = append(violations, fmt.Sprintf("post-drain submission: code %d err %v (want 503)", code, err))
	}
	if code, _ := c.get("/readyz", nil); code != http.StatusServiceUnavailable {
		violations = append(violations, fmt.Sprintf("post-drain readyz: %d (want 503)", code))
	}

	// Metric invariants: after the drain every admitted job is terminal, so
	// the registry's outcome counters must exactly partition the admissions
	// (each server is fresh per schedule, so totals are per-schedule), the
	// job-latency histogram must have observed each job exactly once, and
	// the shed counter must match the 429s this client saw.
	violations = append(violations, checkMetricInvariants(c, sum.Accepted-acceptedBefore, shedHere)...)

	ts.Close()
	c.c.CloseIdleConnections()

	// Goroutine leak check: the pool and per-job goroutines must be gone.
	// Settle loop with slack for runtime/background goroutines.
	ok := false
	for settle := time.Now().Add(10 * time.Second); time.Now().Before(settle); {
		if runtime.NumGoroutine() <= baseline+4 {
			ok = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		violations = append(violations, fmt.Sprintf(
			"goroutine leak after drain: %d running, baseline %d", runtime.NumGoroutine(), baseline))
	}
	return violations
}

// checkMetricInvariants fetches the drained server's /metrics page and
// asserts the accounting identities docs/observability.md promises:
//
//	server_jobs_admitted_total = admitted this schedule
//	admitted = done + failed + canceled       (outcomes partition jobs)
//	server_job_seconds_count   = admitted     (one observation per job)
//	server_shed_total          = 429s observed by the client
func checkMetricInvariants(c *client, admitted, shed int) (violations []string) {
	resp, err := c.c.Get(c.base + "/metrics")
	if err != nil {
		return []string{"metrics fetch: " + err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return []string{fmt.Sprintf("metrics fetch: code %d", resp.StatusCode)}
	}
	vals, err := metrics.ParseText(resp.Body)
	if err != nil {
		return []string{"metrics parse: " + err.Error()}
	}
	intOf := func(name string) int {
		return int(vals[name])
	}
	gotAdmitted := intOf("server_jobs_admitted_total")
	if gotAdmitted != admitted {
		violations = append(violations, fmt.Sprintf(
			"metrics: admitted_total %d, client saw %d accepted", gotAdmitted, admitted))
	}
	outcomes := intOf("server_jobs_done_total") + intOf("server_jobs_failed_total") +
		intOf("server_jobs_canceled_total")
	if outcomes != gotAdmitted {
		violations = append(violations, fmt.Sprintf(
			"metrics: outcomes done+failed+canceled = %d do not partition admitted %d",
			outcomes, gotAdmitted))
	}
	if n := intOf("server_job_seconds_count"); n != gotAdmitted {
		violations = append(violations, fmt.Sprintf(
			"metrics: job_seconds_count %d != admitted %d", n, gotAdmitted))
	}
	if n := intOf("server_shed_total"); n != shed {
		violations = append(violations, fmt.Sprintf(
			"metrics: shed_total %d, client saw %d 429s", n, shed))
	}
	return violations
}

// resumeSweep is the fixed grid the resume check runs: small enough to
// finish quickly, large enough that a drain can interrupt it midway.
var resumeSweep = server.SweepSpec{
	Workloads: []string{"compress", "espresso"},
	Configs:   []string{"A", "D"},
	Widths:    []int{4, 8},
}

// checkResume asserts the campaign's durability contract: a sweep
// interrupted by a drain and finished by a second server over the same
// store renders byte-identically to the same sweep run uninterrupted on a
// fresh store. Returns "" on success.
func checkResume(opt Options) string {
	faultinject.Reset()
	const scale = 60

	newSrv := func(dir string, workers int) (*server.Server, *httptest.Server, *client, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		srv := server.New(server.Options{Workers: workers, QueueDepth: 64, Scale: scale,
			DefaultDeadline: 30 * time.Second, Store: st})
		srv.Start()
		ts := httptest.NewServer(srv.Handler())
		return srv, ts, newClient(ts.URL), nil
	}

	runSweep := func(c *client, waitDone int) (server.Sweep, string, error) {
		code, body, _, err := c.post("/sweeps", resumeSweep)
		if err != nil || code != http.StatusAccepted {
			return server.Sweep{}, "", fmt.Errorf("sweep submit: code %d err %v", code, err)
		}
		var sweep server.Sweep
		if err := json.Unmarshal(body, &sweep); err != nil {
			return server.Sweep{}, "", err
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			var doc struct {
				Done     int    `json:"done"`
				Complete bool   `json:"complete"`
				Report   string `json:"report"`
			}
			if _, err := c.get("/sweeps/"+sweep.ID, &doc); err != nil {
				return sweep, "", err
			}
			if waitDone > 0 && doc.Done >= waitDone {
				return sweep, doc.Report, nil // partial: caller drains now
			}
			if waitDone <= 0 && doc.Complete {
				return sweep, doc.Report, nil
			}
			if time.Now().After(deadline) {
				return sweep, "", errors.New("sweep never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	drain := func(srv *server.Server, ts *httptest.Server, c *client) error {
		ctx, cancel := contextWithTimeout(60 * time.Second)
		defer cancel()
		err := srv.Drain(ctx)
		ts.Close()
		c.c.CloseIdleConnections()
		return err
	}

	dirA := filepath.Join(opt.Dir, "resume-interrupted")
	dirB := filepath.Join(opt.Dir, "resume-clean")

	// Server A: one worker, so the sweep progresses cell by cell; drain
	// after two cells, killing the rest of the grid mid-flight.
	srvA, tsA, cA, err := newSrv(dirA, 1)
	if err != nil {
		return err.Error()
	}
	if _, _, err := runSweep(cA, 2); err != nil {
		return "interrupted run: " + err.Error()
	}
	if err := drain(srvA, tsA, cA); err != nil {
		return "interrupting drain: " + err.Error()
	}

	// Server B: same store. Completed cells load from disk; the rest are
	// computed fresh. The rendered report must not remember the interruption.
	srvB, tsB, cB, err := newSrv(dirA, 2)
	if err != nil {
		return err.Error()
	}
	_, resumed, err := runSweep(cB, 0)
	if err != nil {
		return "resumed run: " + err.Error()
	}
	if err := drain(srvB, tsB, cB); err != nil {
		return "post-resume drain: " + err.Error()
	}

	// Server C: fresh store, uninterrupted baseline.
	srvC, tsC, cC, err := newSrv(dirB, 2)
	if err != nil {
		return err.Error()
	}
	_, unbroken, err := runSweep(cC, 0)
	if err != nil {
		return "uninterrupted run: " + err.Error()
	}
	if err := drain(srvC, tsC, cC); err != nil {
		return "baseline drain: " + err.Error()
	}

	if resumed != unbroken {
		return fmt.Sprintf("resumed sweep diverged from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
			resumed, unbroken)
	}
	if strings.Contains(resumed, "n/a") {
		return "resumed sweep has degraded cells:\n" + resumed
	}
	return ""
}

// contextWithTimeout is context.WithTimeout on Background, split out so
// call sites stay one line.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
