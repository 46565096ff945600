package main

import (
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
)

// timedFS wraps durable.OSFS and times every WAL write and sync, and
// every snapshot from the creation of its temporary file to the rename
// that publishes it. It is passed in durable.Options.FS on traced runs.
type timedFS struct {
	durable.OSFS
	tr *tracer

	mu        sync.Mutex
	walWrite  []float64 // µs
	walSync   []float64 // µs
	walBytes  int64
	snapWrite []float64 // ms
	snapStart map[string]time.Time
}

func newTimedFS(tr *tracer) *timedFS {
	return &timedFS{tr: tr, snapStart: map[string]time.Time{}}
}

// reset drops what set-up recorded, so the figures cover the load only.
func (f *timedFS) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.walWrite, f.walSync, f.walBytes, f.snapWrite = nil, nil, 0, nil
}

// isWAL reports whether name is a WAL segment (wal-<seq>.log).
func isWAL(name string) bool { return strings.HasPrefix(filepath.Base(name), "wal-") }

func (f *timedFS) Create(name string) (durable.File, error) {
	t0 := time.Now()
	file, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	if !isWAL(name) {
		f.mu.Lock()
		f.snapStart[name] = t0
		f.mu.Unlock()
	}
	return &timedFile{File: file, fs: f, wal: isWAL(name)}, nil
}

func (f *timedFS) Open(name string) (durable.File, error) {
	file, err := f.OSFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, wal: isWAL(name)}, nil
}

func (f *timedFS) Rename(oldname, newname string) error {
	err := f.OSFS.Rename(oldname, newname)
	end := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if t0, ok := f.snapStart[oldname]; ok {
		delete(f.snapStart, oldname)
		f.snapWrite = append(f.snapWrite, ms(end.Sub(t0)))
		f.tr.record(0, 0, "durable.snapshot.write", t0, end)
	}
	return err
}

// timedFile times the writes and syncs of one store file.
type timedFile struct {
	durable.File
	fs  *timedFS
	wal bool
}

func (t *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	end := time.Now()
	if t.wal {
		f := t.fs
		f.mu.Lock()
		f.walWrite = append(f.walWrite, us(end.Sub(t0)))
		f.walBytes += int64(n)
		f.mu.Unlock()
		f.tr.record(0, 0, "durable.wal.write", t0, end)
	}
	return n, err
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	end := time.Now()
	if t.wal {
		f := t.fs
		f.mu.Lock()
		f.walSync = append(f.walSync, us(end.Sub(t0)))
		f.mu.Unlock()
		f.tr.record(0, 0, "durable.wal.fsync", t0, end)
	}
	return err
}

// addLayers stores the durable-layer metrics.
func (f *timedFS) addLayers(out map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out["wal.write_us.p50"] = quantile(f.walWrite, 0.5)
	out["wal.write_us.p99"] = quantile(f.walWrite, 0.99)
	out["wal.fsync_us.p50"] = quantile(f.walSync, 0.5)
	out["wal.fsyncs"] = float64(len(f.walSync))
	out["wal.bytes"] = float64(f.walBytes)
	out["snapshot.write_ms.p50"] = quantile(f.snapWrite, 0.5)
	out["snapshot.writes"] = float64(len(f.snapWrite))
}
