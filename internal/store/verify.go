package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// Problem classes reported by Verify. Every defective file falls into
// exactly one: its bytes could not be read ("io"), its bytes failed decode
// or integrity validation ("decode"), or it validated but lives under a
// filename its own key does not map to ("misplaced" — Get would reject it
// on the key comparison, so it is dead weight that can only shadow a
// future entry).
const (
	ProblemIO        = "io"
	ProblemDecode    = "decode"
	ProblemMisplaced = "misplaced"
)

// Problem is one defective file found by Verify.
type Problem struct {
	File   string `json:"file"`          // name relative to the store root
	Class  string `json:"class"`         // ProblemIO | ProblemDecode | ProblemMisplaced
	Detail string `json:"detail"`        // human-readable cause
	Key    *Key   `json:"key,omitempty"` // envelope key, when the entry parsed far enough to yield one
}

// VerifyReport summarizes one full walk of the store.
type VerifyReport struct {
	Scanned  int       `json:"scanned"`   // committed entries examined
	OK       int       `json:"ok"`        // entries that passed every check
	TmpFiles int       `json:"tmp_files"` // in-flight temp files present (informational, not a defect)
	Problems []Problem `json:"problems,omitempty"`
}

// Clean reports whether the walk found no defective entries.
func (r VerifyReport) Clean() bool { return len(r.Problems) == 0 }

// Verify walks every committed entry in the store and validates it the
// same way Get would — envelope parse, version, checksum, payload parse —
// plus the name/key consistency check. It never modifies the store. The
// returned error is non-nil only when the walk itself fails; corruption is
// reported in the VerifyReport, not the error.
func (s *Store) Verify() (VerifyReport, error) {
	var rep VerifyReport
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("store: verify: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			continue
		case strings.HasPrefix(name, tmpPrefix):
			rep.TmpFiles++
			continue
		case filepath.Ext(name) != ".json":
			continue
		}
		rep.Scanned++
		if p := s.verifyFile(name); p != nil {
			rep.Problems = append(rep.Problems, *p)
		} else {
			rep.OK++
		}
	}
	return rep, nil
}

// verifyFile checks one committed entry, returning nil when it is healthy.
func (s *Store) verifyFile(name string) *Problem {
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return &Problem{File: name, Class: ProblemIO, Detail: err.Error()}
	}
	k, _, err := Decode(data)
	if err != nil {
		p := &Problem{File: name, Class: ProblemDecode, Detail: err.Error()}
		// Best-effort key recovery for the repair report: a checksum or
		// payload failure can still carry a parseable envelope key.
		var env envelope
		if json.Unmarshal(data, &env) == nil && env.Key != (Key{}) {
			key := env.Key
			p.Key = &key
		}
		return p
	}
	if k.filename() != name {
		key := k
		return &Problem{
			File:   name,
			Class:  ProblemMisplaced,
			Detail: fmt.Sprintf("entry key maps to %s", k.filename()),
			Key:    &key,
		}
	}
	return nil
}

// RepairReport is the machine-readable outcome of one Repair pass. Repair
// also writes it to corrupt/repair-report.json inside the store.
type RepairReport struct {
	Scanned     int       `json:"scanned"`
	OK          int       `json:"ok"`
	Quarantined []Problem `json:"quarantined,omitempty"`
	Failed      []Problem `json:"failed,omitempty"` // defective but could not be moved
}

// repairReportName is where Repair persists its latest report, inside the
// quarantine directory so `ddstore gc` retention eventually reclaims it
// along with the entries it describes.
const repairReportName = "repair-report.json"

// Repair runs Verify and quarantines every defective entry into the
// corrupt/ subdirectory, leaving healthy entries untouched. Quarantined
// entries keep their filename, so a later forensic Decode still works. The
// pass is idempotent: a second Repair over the same store quarantines
// nothing.
func (s *Store) Repair() (RepairReport, error) {
	var rep RepairReport
	vrep, err := s.Verify()
	if err != nil {
		return rep, err
	}
	rep.Scanned, rep.OK = vrep.Scanned, vrep.OK
	for _, p := range vrep.Problems {
		if err := s.Quarantine(p.File); err != nil {
			p.Detail = fmt.Sprintf("%s (quarantine failed: %v)", p.Detail, err)
			rep.Failed = append(rep.Failed, p)
			continue
		}
		rep.Quarantined = append(rep.Quarantined, p)
	}
	if len(rep.Quarantined) > 0 || len(rep.Failed) > 0 {
		if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
			_ = s.fsys.WriteFile(filepath.Join(s.dir, corruptDirName, repairReportName), data, 0o644)
		}
	}
	return rep, nil
}

// Quarantine moves one file from the store root into the corrupt/
// subdirectory and makes the move durable (both directories synced). The
// entry stops being servable immediately — its live name is gone — but its
// bytes are preserved for forensics until GC retention expires.
func (s *Store) Quarantine(name string) error {
	qdir := filepath.Join(s.dir, corruptDirName)
	if err := s.fsys.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	if err := s.fsys.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	if err := s.fsys.SyncDir(qdir); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	return nil
}

// GCReport summarizes one GC pass.
type GCReport struct {
	TmpRemoved        int `json:"tmp_removed"`        // orphaned temp files removed
	QuarantineRemoved int `json:"quarantine_removed"` // quarantined files past retention removed
}

// GC removes orphaned temp files older than tmpAge from the store root and
// quarantined files older than retention from corrupt/. A zero age means
// "any age" for that class; a negative age disables that class entirely.
func (s *Store) GC(tmpAge, retention time.Duration) (GCReport, error) {
	var rep GCReport
	now := time.Now()

	if tmpAge >= 0 {
		entries, err := s.fsys.ReadDir(s.dir)
		if err != nil {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
		removed := false
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
				continue
			}
			fi, err := e.Info()
			if err != nil || now.Sub(fi.ModTime()) < tmpAge {
				continue
			}
			if s.fsys.Remove(filepath.Join(s.dir, e.Name())) == nil {
				rep.TmpRemoved++
				removed = true
			}
		}
		if removed {
			_ = s.fsys.SyncDir(s.dir)
		}
	}

	if retention >= 0 {
		qdir := filepath.Join(s.dir, corruptDirName)
		entries, err := s.fsys.ReadDir(qdir)
		if err != nil {
			// No quarantine directory yet: nothing to reclaim.
			return rep, nil
		}
		removed := false
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			fi, err := e.Info()
			if err != nil || now.Sub(fi.ModTime()) < retention {
				continue
			}
			if s.fsys.Remove(filepath.Join(qdir, e.Name())) == nil {
				rep.QuarantineRemoved++
				removed = true
			}
		}
		if removed {
			_ = s.fsys.SyncDir(qdir)
		}
	}
	return rep, nil
}
