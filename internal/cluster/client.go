package cluster

// workerClient is the coordinator's HTTP stub for one worker: bank
// execution and health probes. Transport failures are
// wrapped in transportError so the dispatcher can tell "the worker never
// answered" (retry elsewhere, feed the health tracker) from "the worker
// answered with a cell failure" (taxonomy decides).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// transportError is a failure to obtain a bank response at all — dial
// errors, timeouts, non-200 statuses. These say nothing about the cells,
// so they are always retriable on another worker.
type transportError struct {
	worker string
	err    error
}

func (e *transportError) Error() string {
	return fmt.Sprintf("cluster: worker %s: %v", e.worker, e.err)
}

func (e *transportError) Unwrap() error { return e.err }

// workerClient talks to one worker. Name is the stable index-based label
// ("w0", "w1", …) used for partitioning and metrics; URL is the base URL.
type workerClient struct {
	name string
	url  string
	hc   *http.Client
}

func newWorkerClient(name, url string, hc *http.Client) *workerClient {
	return &workerClient{name: name, url: strings.TrimRight(url, "/"), hc: hc}
}

// ExecBank POSTs a bank of cells with its per-cell budget and decodes the
// positional outcomes.
func (c *workerClient) ExecBank(ctx context.Context, cells []CellSpec, budget time.Duration) ([]CellOutcome, error) {
	body, err := json.Marshal(bankRequest{Cells: cells, Budget: budget})
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding bank: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/cells", bytes.NewReader(body))
	if err != nil {
		return nil, &transportError{worker: c.name, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &transportError{worker: c.name, err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &transportError{worker: c.name, err: httpStatusError(resp)}
	}
	var br bankResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxCellsBody)).Decode(&br); err != nil {
		return nil, &transportError{worker: c.name, err: fmt.Errorf("decoding outcomes: %w", err)}
	}
	if len(br.Outcomes) != len(cells) {
		return nil, &transportError{worker: c.name,
			err: fmt.Errorf("outcome count %d != cell count %d", len(br.Outcomes), len(cells))}
	}
	return br.Outcomes, nil
}

// Probe checks worker liveness via GET /workerz.
func (c *workerClient) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/workerz", nil)
	if err != nil {
		return &transportError{worker: c.name, err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &transportError{worker: c.name, err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &transportError{worker: c.name, err: httpStatusError(resp)}
	}
	var st WorkerStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return &transportError{worker: c.name, err: fmt.Errorf("decoding status: %w", err)}
	}
	if !st.Worker {
		return &transportError{worker: c.name, err: fmt.Errorf("endpoint answered but is not a worker")}
	}
	return nil
}

// httpStatusError summarizes a non-success response, keeping the first
// line of the body (the worker's http.Error text) for the log.
func httpStatusError(resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(snippet))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if msg == "" {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
}
