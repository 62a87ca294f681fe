package server

// Quarantine: a cell that keeps crashing is removed from service instead
// of being re-run. A panic is recovered and isolated (one failed job), but
// a cell that panics repeatedly is deterministic damage — every re-attempt
// burns a worker and risks whatever partial state the panic left behind.
// After `after` crashes, jobs for that cell are rejected immediately with
// the quarantined kind, without touching the worker pool.

import "sync"

type quarantine struct {
	mu      sync.Mutex
	after   int // crashes before a cell is blocked
	crashes map[cellKey]int
	blocked map[cellKey]bool
}

func newQuarantine(after int) *quarantine {
	return &quarantine{
		after:   after,
		crashes: make(map[cellKey]int),
		blocked: make(map[cellKey]bool),
	}
}

// recordCrash notes one crash of the cell and reports whether this crash
// tripped the quarantine.
func (q *quarantine) recordCrash(k cellKey) (nowBlocked bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.crashes[k]++
	if !q.blocked[k] && q.crashes[k] >= q.after {
		q.blocked[k] = true
		return true
	}
	return false
}

// isBlocked reports whether the cell is quarantined.
func (q *quarantine) isBlocked(k cellKey) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.blocked[k]
}

// count reports how many cells are currently quarantined.
func (q *quarantine) count() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.blocked)
}
