package server

// Job lifecycle. Every job ends in exactly one terminal state with, on
// failure, a structured *failure.Error: clients branch on its kind (the
// pipeline taxonomy, docs/robustness.md §6), never on message text.

import (
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states. queued and running are transient; done, failed,
// and canceled are terminal.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the client-supplied description of one simulation cell.
type JobSpec struct {
	Workload  string `json:"workload"`
	Config    string `json:"config"`
	Width     int    `json:"width"`
	SelfCheck bool   `json:"selfcheck,omitempty"`
	// DeadlineMS bounds the job's wall-clock run time in milliseconds;
	// 0 means the server's default deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// cellKey identifies the quarantine unit: the cell a spec resolves to.
type cellKey struct {
	workload string
	config   string // fingerprint: injective over ablations
	width    int
	checked  bool
}

// JobResult is the successful outcome of one job.
type JobResult struct {
	IPC          float64 `json:"ipc"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	SelfChecks   int64   `json:"self_checks,omitempty"`
}

// Job is one admitted simulation cell. All fields are guarded by the
// server's mutex; handlers serve copies via the doc() snapshot.
type Job struct {
	ID     string         `json:"id"`
	Spec   JobSpec        `json:"spec"`
	State  JobState       `json:"state"`
	Error  *failure.Error `json:"error,omitempty"`
	Result *JobResult     `json:"result,omitempty"`
	Sweep  string         `json:"sweep,omitempty"`

	// resolved at admission so workers never re-parse
	w   *workloads.Workload
	cfg core.Config
	// deadline is the normalized per-job deadline (defaults applied).
	deadline time.Duration
	// admitted is when admission control accepted the job; the terminal
	// server_job_seconds observation measures from here.
	admitted time.Time
	// trace is the job's span log (GET /jobs/{id}/trace); queuedSpan is
	// its open queue-wait span, ended when a worker dequeues the job.
	trace      *metrics.Trace
	queuedSpan *metrics.Span
}

// key returns the job's quarantine identity.
func (j *Job) key() cellKey {
	return cellKey{j.Spec.Workload, j.cfg.Fingerprint(), j.Spec.Width, j.Spec.SelfCheck}
}

// jobError reduces a pipeline error to the job's failure (nil for nil).
// Its kind is failure.Of's, except that a cancellation while the server
// drains is a drain.
func jobError(err error, draining bool) *failure.Error {
	jerr := failure.From(err)
	if jerr != nil && jerr.Kind == failure.Canceled && draining {
		jerr.Kind = failure.Drain
	}
	return jerr
}
