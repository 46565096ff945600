// Package durable makes the SCC service's accepted state survive
// process death: a write-ahead log of edge batches (length-prefixed,
// CRC32C-checksummed records with a configurable fsync policy) plus
// periodic checksummed snapshots of the base graph written via
// temp-file + atomic rename. Startup recovery loads the newest valid
// snapshot, replays the WAL tail through the limit-guarded record
// decoder, truncates at the first torn or corrupt record, and hands
// the server an edge set identical to everything it acknowledged
// before dying.
//
// All file access goes through the FS interface so the failure matrix
// can reach the I/O layer: FaultFS injects short writes, fsync
// errors, and hard crash-points at exact operation ordinals, the disk
// sibling of internal/chaos's in-kernel injection sites.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the slice of *os.File the store needs. Writes go only to
// files obtained from Create; reads and truncation also happen during
// recovery on files reopened with Open.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS abstracts the filesystem operations behind the store, so tests
// can interpose FaultFS. The zero configuration (OSFS) is the real
// thing.
type FS interface {
	// MkdirAll creates the store directory.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens an existing file read-write (recovery truncates the
	// WAL in place at the first corrupt record).
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// List returns the base names of the directory's entries.
	List(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making renames and creates
	// durable.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Open(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR, 0o644)
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }

func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrCrashed is the error every operation on a crashed FaultFS
// returns: the injected crash-point fired and the simulated process
// is dead as far as the disk is concerned. The store treats it (like
// any append error) as fail-stop.
var ErrCrashed = errors.New("durable: injected crash-point fired")

// ErrInjected wraps the non-fatal injected failures (short writes,
// fsync errors) so tests can tell them from real I/O errors.
var ErrInjected = errors.New("durable: injected I/O fault")

// FaultConfig schedules I/O failures at exact 1-based mutating-op
// ordinals. Mutating ops are Create, Write, Sync, Truncate, Rename
// and Remove, counted in execution order across the whole FS; for a
// deterministic workload the ordinal sequence is deterministic, which
// is what the crash-point matrix sweeps.
type FaultConfig struct {
	// CrashAt, when > 0, hard-kills the FS at the CrashAt-th mutating
	// op: a Write persists only the first half of its bytes (a torn
	// record), a Sync syncs nothing, a Rename or Create does not
	// happen — exactly the states SIGKILL can leave behind. The op
	// returns ErrCrashed and every later op fails the same way with no
	// effect.
	CrashAt int64
	// ShortWriteAt, when > 0, makes the ShortWriteAt-th mutating op —
	// if it is a Write — persist half its bytes and return an error
	// wrapping ErrInjected. The FS stays alive.
	ShortWriteAt int64
	// SyncErrAt, when > 0, makes the SyncErrAt-th mutating op — if it
	// is a Sync — fail (without syncing) with an error wrapping
	// ErrInjected. The FS stays alive.
	SyncErrAt int64
}

// FaultFS wraps an FS and injects the configured faults. It also
// counts mutating ops on a clean pass, which is how the crash matrix
// discovers how many ordinals there are to sweep.
type FaultFS struct {
	base FS
	cfg  FaultConfig

	mu   sync.Mutex
	ops  int64
	dead bool
}

// NewFaultFS wraps base (nil means OSFS) with the fault schedule.
func NewFaultFS(base FS, cfg FaultConfig) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{base: base, cfg: cfg}
}

// Ops reports how many mutating operations have executed, including
// the one that crashed.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash-point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// opKind classifies a mutating op for the fault dispatch.
type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opSync
	opTruncate
	opRename
	opRemove
)

// step advances the op counter and decides this op's fate: fault==nil
// means proceed normally; otherwise the op must apply at most the
// partial effect the kind allows and return the fault.
func (f *FaultFS) step(k opKind) (fault error, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrCrashed, false
	}
	f.ops++
	n := f.ops
	if f.cfg.CrashAt > 0 && n == f.cfg.CrashAt {
		f.dead = true
		return ErrCrashed, k == opWrite
	}
	if f.cfg.ShortWriteAt > 0 && n == f.cfg.ShortWriteAt && k == opWrite {
		return fmt.Errorf("%w: short write at op %d", ErrInjected, n), true
	}
	if f.cfg.SyncErrAt > 0 && n == f.cfg.SyncErrAt && k == opSync {
		return fmt.Errorf("%w: fsync error at op %d", ErrInjected, n), false
	}
	return nil, false
}

func (f *FaultFS) MkdirAll(dir string) error { return f.base.MkdirAll(dir) }

func (f *FaultFS) Create(name string) (File, error) {
	if fault, _ := f.step(opCreate); fault != nil {
		return nil, fault
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	// Opening for read is not a mutating op; the file handle still
	// routes its writes/syncs/truncates through the fault schedule.
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if fault, _ := f.step(opRename); fault != nil {
		return fault
	}
	return f.base.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if fault, _ := f.step(opRemove); fault != nil {
		return fault
	}
	return f.base.Remove(name)
}

func (f *FaultFS) List(dir string) ([]string, error) { return f.base.List(dir) }

func (f *FaultFS) SyncDir(dir string) error {
	if fault, _ := f.step(opSync); fault != nil {
		return fault
	}
	return f.base.SyncDir(dir)
}

// faultFile routes a File's mutating calls through the owning
// FaultFS's schedule.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Read(p []byte) (int, error)                { return ff.f.Read(p) }
func (ff *faultFile) Seek(off int64, whence int) (int64, error) { return ff.f.Seek(off, whence) }
func (ff *faultFile) Close() error                              { return ff.f.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	fault, torn := ff.fs.step(opWrite)
	if fault == nil {
		return ff.f.Write(p)
	}
	if torn && len(p) > 0 {
		// A torn write: half the record reaches the disk. Recovery
		// must detect and truncate it.
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, fault
	}
	return 0, fault
}

func (ff *faultFile) Sync() error {
	if fault, _ := ff.fs.step(opSync); fault != nil {
		return fault
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if fault, _ := ff.fs.step(opTruncate); fault != nil {
		return fault
	}
	return ff.f.Truncate(size)
}

// joinDir is filepath.Join, aliased so the store reads naturally.
func joinDir(dir, name string) string { return filepath.Join(dir, name) }
