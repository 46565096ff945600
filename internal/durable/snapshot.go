package durable

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"repro/graph"
)

// Snapshot file layout ("snap-<seq>.snap", little-endian):
//
//	magic   [8]byte  "SCCSNAP1"
//	seq     uint64   last WAL sequence number the snapshot covers
//	payload          the base graph in the SCCG binary format
//	crc     uint32   CRC32-C over everything before it
//
// A snapshot is written to a ".tmp" name, fsynced, then atomically
// renamed into place and the directory fsynced, so a crash at any
// point leaves either the previous snapshot set or the previous set
// plus one complete new snapshot — never a half-written file under a
// live name. The graph payload is parsed back through
// graph.LoadLimited, so a corrupt-but-checksummed snapshot still
// cannot demand unbounded memory and its CSR arrays are structurally
// validated before use.

const snapshotMagic = "SCCSNAP1"

// snapshotHeaderLen is magic + seq.
const snapshotHeaderLen = 16

func snapshotName(seq uint64) string  { return fmt.Sprintf("snap-%016d.snap", seq) }
func segmentName(start uint64) string { return fmt.Sprintf("wal-%016d.log", start) }

// parseSeqName extracts the sequence number from a "prefix-<16
// digits><suffix>" store file name, reporting ok=false for anything
// else (tmp files, strangers).
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok || len(rest) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// crcWriter tees writes into a running CRC32-C.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// writeSnapshotFile writes g at seq into the temp name and atomically
// renames it into place. Any error leaves no new file under the live
// name.
func (s *Store) writeSnapshotFile(g *graph.Graph, seq uint64) error {
	tmp := joinDir(s.opts.Dir, snapshotName(seq)+".tmp")
	final := joinDir(s.opts.Dir, snapshotName(seq))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: snapshot create: %w", err)
	}
	cw := &crcWriter{w: f}
	var hdr [snapshotHeaderLen]byte
	copy(hdr[:], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := cw.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot header: %w", err)
	}
	if err := g.Save(cw); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot payload: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := f.Write(tail[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot trailer: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	if err := s.fs.SyncDir(s.opts.Dir); err != nil {
		return fmt.Errorf("durable: snapshot dir fsync: %w", err)
	}
	return nil
}

// loadSnapshotFile verifies and parses one snapshot file. The CRC is
// checked over the whole file before the graph payload is parsed, and
// the payload goes through the limit-guarded SCCG loader.
func (s *Store) loadSnapshotFile(ctx context.Context, name string, wantSeq uint64) (*graph.Graph, error) {
	path := joinDir(s.opts.Dir, name)
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size < snapshotHeaderLen+4 {
		return nil, corrupt(name, 0, "snapshot too small (%d bytes)", size)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}

	// Pass 1: checksum everything but the trailer.
	body := size - 4
	var crc uint32
	buf := make([]byte, 64<<10)
	for remaining := body; remaining > 0; {
		chunk := int64(len(buf))
		if chunk > remaining {
			chunk = remaining
		}
		if _, err := io.ReadFull(f, buf[:chunk]); err != nil {
			return nil, corrupt(name, body-remaining, "reading snapshot body: %v", err)
		}
		crc = crc32.Update(crc, crcTable, buf[:chunk])
		remaining -= chunk
	}
	var tail [4]byte
	if _, err := io.ReadFull(f, tail[:]); err != nil {
		return nil, corrupt(name, body, "reading snapshot trailer: %v", err)
	}
	if stored := binary.LittleEndian.Uint32(tail[:]); stored != crc {
		return nil, corrupt(name, 0, "snapshot checksum mismatch (stored %08x, computed %08x)", stored, crc)
	}

	// Pass 2: parse the verified header and payload.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, corrupt(name, 0, "reading snapshot header: %v", err)
	}
	if string(hdr[:8]) != snapshotMagic {
		return nil, corrupt(name, 0, "bad snapshot magic %q", hdr[:8])
	}
	if seq := binary.LittleEndian.Uint64(hdr[8:]); seq != wantSeq {
		return nil, corrupt(name, 0, "snapshot seq %d does not match file name seq %d", seq, wantSeq)
	}
	g, err := graph.LoadLimited(ctx, io.LimitReader(f, body-snapshotHeaderLen), s.opts.Limits)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // cancellation is not corruption
		}
		return nil, corrupt(name, snapshotHeaderLen, "snapshot graph payload: %v", err)
	}
	return g, nil
}
