package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrPowerLoss is returned by every Sim operation attempted at or after
// the armed cut point: the machine is down until Crash() reboots it.
var ErrPowerLoss = errors.New("faultfs: simulated power loss")

// Sim is a seeded in-memory filesystem with power-fail semantics. It
// models exactly the durability rules a crash-consistent writer must
// respect on a real filesystem:
//
//   - file data becomes durable only on File.Sync; at a crash, the
//     un-synced tail of a file survives partially and possibly torn (a
//     random prefix, sometimes with a flipped bit — the partial-page
//     write);
//   - a directory entry (create, rename, remove) becomes durable only on
//     SyncDir of the parent; at a crash, an un-synced entry change
//     survives with probability 1/2 (journalled filesystems may or may
//     not have flushed it — a correct writer can rely on neither), and a
//     rename that did not survive reverts to the pre-rename state;
//   - directories themselves are durable on creation (the store creates
//     its directory once, before any interesting write).
//
// Every mutating operation advances a step counter; SetCut arms a power
// cut after N steps, after which all operations fail with ErrPowerLoss
// until Crash() applies the loss rules above and reboots. Enumerating cut
// points 0..Steps() therefore replays a write sequence under every
// possible crash instant. All behavior is deterministic per seed.
type Sim struct {
	mu      sync.Mutex
	rng     *rand.Rand
	steps   int64
	cutAt   int64 // -1 = never
	down    bool
	crashes int64

	dirs     map[string]bool
	files    map[string]*simFile
	ghosts   map[string]*simFile // durable entries hidden by an un-synced rename/remove
	nextTemp int
}

type simFile struct {
	data        []byte
	synced      int // durable prefix of data
	linkDurable bool
	mtime       time.Time
}

var _ FS = (*Sim)(nil)

// NewSim builds a simulator; all randomness (tear lengths, bit flips,
// entry survival) derives from seed.
func NewSim(seed int64) *Sim {
	return &Sim{
		rng:    rand.New(rand.NewSource(seed)),
		cutAt:  -1,
		dirs:   map[string]bool{".": true, "/": true},
		files:  map[string]*simFile{},
		ghosts: map[string]*simFile{},
	}
}

// SetCut arms a power cut: the first mutating operation that would push
// the step counter beyond n fails with ErrPowerLoss, as does everything
// after it until Crash(). n is absolute (compare Steps()); negative
// disarms.
func (s *Sim) SetCut(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutAt = n
}

// Steps reports the number of mutating operations performed so far.
func (s *Sim) Steps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Down reports whether the simulated machine is currently powered off.
func (s *Sim) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Crashes reports how many times Crash has been called.
func (s *Sim) Crashes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}

// Crash applies the power-loss rules — drop or tear un-synced data, keep
// or revert un-synced directory-entry changes — and reboots the machine:
// afterwards all surviving state is durable, the cut is disarmed, and
// operations succeed again. Calling Crash on a machine that is still up
// models an abrupt kill -9 + power pull at this instant.
func (s *Sim) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes++
	for name, f := range s.files {
		if !f.linkDurable && s.rng.Intn(2) == 0 {
			// The un-synced directory entry never reached the disk.
			delete(s.files, name)
			continue
		}
		f.data = s.tearLocked(f)
		f.synced = len(f.data)
		f.linkDurable = true
	}
	for name, g := range s.ghosts {
		if _, exists := s.files[name]; exists {
			continue // the replacing entry survived; the ghost is gone
		}
		// The rename/remove that hid this durable entry did not survive.
		g.data = s.tearLocked(g)
		g.synced = len(g.data)
		g.linkDurable = true
		s.files[name] = g
	}
	s.ghosts = map[string]*simFile{}
	s.down = false
	s.cutAt = -1
}

// tearLocked returns what survives of a file's content: the synced prefix
// intact, plus a random (possibly bit-flipped) prefix of the un-synced
// tail — the torn partial-page write.
func (s *Sim) tearLocked(f *simFile) []byte {
	keep := f.data[:f.synced]
	tail := f.data[f.synced:]
	if len(tail) == 0 {
		return keep
	}
	k := s.rng.Intn(len(tail) + 1)
	out := append(append([]byte{}, keep...), tail[:k]...)
	if k > 0 && s.rng.Intn(2) == 0 {
		bit := s.rng.Intn(k * 8)
		out[len(keep)+bit/8] ^= 1 << (bit % 8)
	}
	return out
}

// stepLocked advances the step counter and enforces the armed cut.
func (s *Sim) stepLocked() error {
	if s.down {
		return ErrPowerLoss
	}
	s.steps++
	if s.cutAt >= 0 && s.steps > s.cutAt {
		s.down = true
		return ErrPowerLoss
	}
	return nil
}

func pathErr(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: err}
}

// MkdirAll implements FS. Created directories are durable immediately
// (see the type comment).
func (s *Sim) MkdirAll(path string, _ fs.FileMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return pathErr("mkdir", path, err)
	}
	p := filepath.Clean(path)
	for p != "." && p != "/" {
		s.dirs[p] = true
		p = filepath.Dir(p)
	}
	return nil
}

// ReadFile implements FS.
func (s *Sim) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, pathErr("read", name, ErrPowerLoss)
	}
	f, ok := s.files[filepath.Clean(name)]
	if !ok {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile implements FS. The write is volatile until a crash or an
// explicit durability barrier; Sim models it as fully un-synced.
func (s *Sim) WriteFile(name string, data []byte, _ fs.FileMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return pathErr("write", name, err)
	}
	name = filepath.Clean(name)
	if !s.dirs[filepath.Dir(name)] {
		return pathErr("write", name, fs.ErrNotExist)
	}
	linkDurable := false
	if old, ok := s.files[name]; ok {
		linkDurable = old.linkDurable
	}
	s.files[name] = &simFile{data: append([]byte(nil), data...), linkDurable: linkDurable, mtime: time.Now()}
	return nil
}

// CreateTemp implements FS. The temp file's directory entry is not
// durable until the directory is synced — after a crash an orphaned temp
// file may or may not be found on disk.
func (s *Sim) CreateTemp(dir, pattern string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return nil, pathErr("createtemp", dir, err)
	}
	d := filepath.Clean(dir)
	if !s.dirs[d] {
		return nil, pathErr("createtemp", dir, fs.ErrNotExist)
	}
	s.nextTemp++
	base := pattern
	if i := indexByte(pattern, '*'); i >= 0 {
		base = pattern[:i] + fmt.Sprintf("%09d", s.nextTemp) + pattern[i+1:]
	} else {
		base = pattern + fmt.Sprintf("%09d", s.nextTemp)
	}
	name := filepath.Join(d, base)
	s.files[name] = &simFile{mtime: time.Now()}
	return &simHandle{s: s, name: name}, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Rename implements FS. The entry change is volatile until SyncDir: at a
// crash an un-synced rename may revert, restoring the old name (and, when
// the rename overwrote an existing durable entry, the overwritten one).
func (s *Sim) Rename(oldpath, newpath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return pathErr("rename", oldpath, err)
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	f, ok := s.files[oldpath]
	if !ok {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	if !s.dirs[filepath.Dir(newpath)] {
		return pathErr("rename", newpath, fs.ErrNotExist)
	}
	delete(s.files, oldpath)
	if f.linkDurable {
		if _, ok := s.ghosts[oldpath]; !ok {
			s.ghosts[oldpath] = &simFile{data: append([]byte(nil), f.data...), synced: f.synced, linkDurable: true, mtime: f.mtime}
		}
	}
	if t, ok := s.files[newpath]; ok && t.linkDurable {
		if _, ok := s.ghosts[newpath]; !ok {
			s.ghosts[newpath] = t
		}
	}
	f.linkDurable = false
	s.files[newpath] = f
	return nil
}

// Remove implements FS. Like Rename, the unlink is volatile until SyncDir
// — a removed durable entry may reappear after a crash.
func (s *Sim) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return pathErr("remove", name, err)
	}
	name = filepath.Clean(name)
	f, ok := s.files[name]
	if !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(s.files, name)
	if f.linkDurable {
		if _, ok := s.ghosts[name]; !ok {
			s.ghosts[name] = f
		}
	}
	return nil
}

// SyncDir implements FS: every entry change under dir becomes durable —
// created and renamed entries will survive a crash, removed and
// overwritten ones will not reappear.
func (s *Sim) SyncDir(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stepLocked(); err != nil {
		return pathErr("syncdir", dir, err)
	}
	dir = filepath.Clean(dir)
	if !s.dirs[dir] {
		return pathErr("syncdir", dir, fs.ErrNotExist)
	}
	for name, f := range s.files {
		if filepath.Dir(name) == dir {
			f.linkDurable = true
		}
	}
	for name := range s.ghosts {
		if filepath.Dir(name) == dir {
			delete(s.ghosts, name)
		}
	}
	return nil
}

// ReadDir implements FS.
func (s *Sim) ReadDir(name string) ([]fs.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, pathErr("readdir", name, ErrPowerLoss)
	}
	dir := filepath.Clean(name)
	if !s.dirs[dir] {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, f := range s.files {
		if filepath.Dir(p) == dir {
			out = append(out, &simDirEntry{name: filepath.Base(p), info: simFileInfo{name: filepath.Base(p), size: int64(len(f.data)), mtime: f.mtime}})
		}
	}
	for p := range s.dirs {
		if p != "." && p != "/" && filepath.Dir(p) == dir {
			out = append(out, &simDirEntry{name: filepath.Base(p), dir: true, info: simFileInfo{name: filepath.Base(p), dir: true}})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS.
func (s *Sim) Stat(name string) (fs.FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, pathErr("stat", name, ErrPowerLoss)
	}
	p := filepath.Clean(name)
	if f, ok := s.files[p]; ok {
		return simFileInfo{name: filepath.Base(p), size: int64(len(f.data)), mtime: f.mtime}, nil
	}
	if s.dirs[p] {
		return simFileInfo{name: filepath.Base(p), dir: true}, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// SetMtime backdates a file's modification time (test hook for the
// stale-temp-file age policies).
func (s *Sim) SetMtime(name string, t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[filepath.Clean(name)]
	if !ok {
		return pathErr("chtimes", name, fs.ErrNotExist)
	}
	f.mtime = t
	return nil
}

// simHandle is the Sim's File: appends are volatile, Sync is the data
// durability barrier, and Close is a no-op mutation that still consumes a
// cut point (so the enumeration covers a crash between close and rename).
type simHandle struct {
	s      *Sim
	name   string
	closed bool
}

// Name implements File.
func (h *simHandle) Name() string { return h.name }

// Write implements File.
func (h *simHandle) Write(p []byte) (int, error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if err := h.s.stepLocked(); err != nil {
		return 0, pathErr("write", h.name, err)
	}
	if h.closed {
		return 0, pathErr("write", h.name, fs.ErrClosed)
	}
	f, ok := h.s.files[h.name]
	if !ok {
		return 0, pathErr("write", h.name, fs.ErrNotExist)
	}
	f.data = append(f.data, p...)
	f.mtime = time.Now()
	return len(p), nil
}

// Sync implements File.
func (h *simHandle) Sync() error {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if err := h.s.stepLocked(); err != nil {
		return pathErr("sync", h.name, err)
	}
	if h.closed {
		return pathErr("sync", h.name, fs.ErrClosed)
	}
	if f, ok := h.s.files[h.name]; ok {
		f.synced = len(f.data)
	}
	return nil
}

// Close implements File.
func (h *simHandle) Close() error {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if err := h.s.stepLocked(); err != nil {
		return pathErr("close", h.name, err)
	}
	h.closed = true
	return nil
}

// simDirEntry / simFileInfo implement fs.DirEntry / fs.FileInfo.
type simDirEntry struct {
	name string
	dir  bool
	info simFileInfo
}

func (e *simDirEntry) Name() string               { return e.name }
func (e *simDirEntry) IsDir() bool                { return e.dir }
func (e *simDirEntry) Type() fs.FileMode          { return e.info.Mode().Type() }
func (e *simDirEntry) Info() (fs.FileInfo, error) { return e.info, nil }

type simFileInfo struct {
	name  string
	size  int64
	dir   bool
	mtime time.Time
}

func (i simFileInfo) Name() string { return i.name }
func (i simFileInfo) Size() int64  { return i.size }
func (i simFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i simFileInfo) ModTime() time.Time { return i.mtime }
func (i simFileInfo) IsDir() bool        { return i.dir }
func (i simFileInfo) Sys() any           { return nil }
