package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// writeReferences regenerates the reference outputs the runs compare
// against, from local runs: the rendered sweeps at paper-sweep's and
// cluster-sweep's scales (byte-identical to ddsim -experiment all -scale
// N), and the cycle count of every cell serve-mixed can request.
func writeReferences(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := map[int]bool{}
	for _, scale := range []int{paperScale, clusterScale} {
		if written[scale] {
			continue
		}
		written[scale] = true
		got, err := renderAll(experiments.NewRunner(scale).WithWorkers(2), nil, 0, new(atomic.Int64))
		if err != nil {
			return fmt.Errorf("scale %d sweep: %w", scale, err)
		}
		if err := os.WriteFile(filepath.Join(dir, refName(scale)), []byte(got), 0o644); err != nil {
			return err
		}
	}
	cycles, err := localCycles(serveUniverse())
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cycles, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, serveRefName), append(data, '\n'), 0o644)
}

// localCycles simulates each cell locally at serve-mixed's scale.
func localCycles(cells []cell) (map[string]int64, error) {
	r := experiments.NewRunner(serveScale).WithWorkers(2)
	out := map[string]int64{}
	for _, c := range cells {
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return nil, err
		}
		cfg, err := core.ConfigByName(c.Config)
		if err != nil {
			return nil, err
		}
		res, err := r.Result(w, cfg, c.Width)
		if err != nil {
			return nil, err
		}
		out[c.key()] = res.Cycles
	}
	return out, nil
}
