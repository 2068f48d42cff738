// Package feed is the ingest side of the continuous-training loop: an
// append-only, CRC-framed rating log that buffers incoming (user, item,
// value) triples durably until the trainer compacts them into a delta
// .bcsr shard (see Compact) and warm-starts the Gibbs chain over
// base+delta.
//
// On-disk layout (all integers little-endian):
//
//	magic   "BPMFFEED1\n"                    10 bytes
//	items   u64                               item-catalog width N; item
//	                                          ids must stay below it (the
//	                                          model's item factors pin the
//	                                          catalog — items cannot grow
//	                                          through the log, users can)
//	frames  repeated:
//	  count u32                               records in this frame, >= 1
//	  crc   u32                               IEEE CRC-32 of the payload
//	  payload count × entry record (sparse.AppendEntry: row = user,
//	                                          col = item)
//
// Append writes one frame with a single write(2) call and fsyncs before
// returning, so an acknowledged batch survives a crash. Recovery
// distinguishes the two ways a log can be damaged:
//
//   - A torn tail — the final frame's declared length extends past EOF,
//     the footprint of a crash mid-append. OpenLog truncates it away and
//     reports the dropped bytes via RecoveredBytes; every acknowledged
//     frame before it is intact.
//   - A corrupt frame — fully present but failing its CRC (bit rot, an
//     overwrite). That breaks the append-only model, so OpenLog refuses
//     the whole log rather than guess.
//
// The log has a single writer: one process owns Append/Compact/Truncate
// (the trainer, or its -ingest one-shot). Multi-process appends are out
// of scope.
package feed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sparse"
)

const (
	logMagic  = "BPMFFEED1\n"
	headerLen = len(logMagic) + 8
	recordLen = sparse.EntryRecordLen
	frameHdr  = 8
	// maxFrameRecords bounds a frame's declared count so a corrupt
	// header can cost at most one bounded allocation, mirroring the
	// .bcsr reader's hostile-header stance. Append splits larger
	// batches.
	maxFrameRecords = 1 << 20
)

// Log is an append-only rating log. Not safe for concurrent use.
type Log struct {
	f         *os.File
	path      string
	n         int   // item-catalog width
	records   int64 // records in acknowledged (valid) frames
	size      int64 // offset past the last valid frame
	recovered int64 // bytes truncated from a torn tail at open
}

// OpenLog opens (or creates) the rating log at path for an item catalog
// of width n. Reopening an existing log validates its header and every
// complete frame, recovers a torn tail by truncating it, and positions
// the log for further appends.
func OpenLog(path string, n int) (*Log, error) {
	if n < 1 {
		return nil, fmt.Errorf("feed: item catalog width must be >= 1, got %d", n)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feed: opening log: %w", err)
	}
	l := &Log{f: f, path: path, n: n}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover validates the header and frames, initializing a fresh file
// and truncating a torn tail.
func (l *Log) recover() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("feed: stat log: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		var hdr [headerLen]byte
		copy(hdr[:], logMagic)
		binary.LittleEndian.PutUint64(hdr[len(logMagic):], uint64(l.n))
		if _, err := l.f.Write(hdr[:]); err != nil {
			return fmt.Errorf("feed: writing log header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("feed: syncing log header: %w", err)
		}
		// Unsynced, a new file's directory entry (and every Append) can vanish.
		if err := sparse.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("feed: syncing log directory: %w", err)
		}
		l.size = int64(headerLen)
		return nil
	}
	if size < int64(headerLen) {
		return fmt.Errorf("feed: %s: log header truncated (%d of %d bytes)", l.path, size, headerLen)
	}
	br := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), 1<<20)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("feed: reading log header: %w", err)
	}
	if string(hdr[:len(logMagic)]) != logMagic {
		return fmt.Errorf("feed: %s: not a rating log (magic %q)", l.path, hdr[:len(logMagic)])
	}
	if got := binary.LittleEndian.Uint64(hdr[len(logMagic):]); got != uint64(l.n) {
		return fmt.Errorf("feed: %s: log has %d items, expected %d", l.path, got, l.n)
	}
	records, end, err := scanFrames(br, l.path, int64(headerLen), size, nil)
	if err != nil {
		return err
	}
	l.records, l.size = records, end
	if end < size {
		// Torn tail: a crash mid-append left a partial frame. Everything
		// before it was acknowledged and intact — drop only the tail.
		if err := l.f.Truncate(end); err != nil {
			return fmt.Errorf("feed: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("feed: syncing truncated log: %w", err)
		}
		l.recovered = size - end
	}
	if _, err := l.f.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("feed: seeking to log end: %w", err)
	}
	return nil
}

// scanFrames walks the frames in [off, size), validating each complete
// frame's CRC and handing its records to visit (may be nil). It returns
// the record count and the offset past the last complete frame; a
// partial trailing frame is reported through that offset, while a
// corrupt complete frame is an error.
func scanFrames(br *bufio.Reader, path string, off, size int64, visit func(sparse.Entry) error) (records, end int64, err error) {
	var hdr [frameHdr]byte
	buf := make([]byte, 0, 64*recordLen)
	for off < size {
		if size-off < int64(frameHdr) {
			return records, off, nil // torn: not even a frame header
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return 0, 0, fmt.Errorf("feed: %s: reading frame header at offset %d: %w", path, off, err)
		}
		count := binary.LittleEndian.Uint32(hdr[0:])
		want := int64(count) * recordLen
		if size-off-int64(frameHdr) < want {
			return records, off, nil // torn: payload extends past EOF
		}
		if count == 0 || count > maxFrameRecords {
			return 0, 0, fmt.Errorf("feed: %s: frame at offset %d declares %d records (max %d)",
				path, off, count, maxFrameRecords)
		}
		if int64(cap(buf)) < want {
			buf = make([]byte, want)
		}
		buf = buf[:want]
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, 0, fmt.Errorf("feed: %s: reading frame payload at offset %d: %w", path, off, err)
		}
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if got := crc32.ChecksumIEEE(buf); got != crc {
			return 0, 0, fmt.Errorf("feed: %s: frame at offset %d: payload CRC mismatch (file %08x, computed %08x)",
				path, off, crc, got)
		}
		if visit != nil {
			for rec := buf; len(rec) > 0; rec = rec[recordLen:] {
				e, err := sparse.DecodeEntry(rec)
				if err != nil {
					return 0, 0, err
				}
				if err := visit(e); err != nil {
					return 0, 0, err
				}
			}
		}
		records += int64(count)
		off += int64(frameHdr) + want
	}
	return records, off, nil
}

// Append writes the entries as CRC-framed records and fsyncs: when it
// returns nil, the batch survives a crash. Entries are validated first
// (item in [0, N), user >= 0, finite value) — an invalid batch writes
// nothing. An empty batch is a no-op.
func (l *Log) Append(entries []sparse.Entry) error {
	for _, e := range entries {
		if e.Row < 0 {
			return fmt.Errorf("feed: negative user %d", e.Row)
		}
		if e.Col < 0 || int(e.Col) >= l.n {
			return fmt.Errorf("feed: item %d outside catalog of %d", e.Col, l.n)
		}
		if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
			return fmt.Errorf("feed: rating (%d, %d) has non-finite value", e.Row, e.Col)
		}
	}
	for len(entries) > 0 {
		frame := entries
		if len(frame) > maxFrameRecords {
			frame = frame[:maxFrameRecords]
		}
		entries = entries[len(frame):]
		if err := l.appendFrame(frame); err != nil {
			return err
		}
	}
	return l.sync()
}

// appendFrame encodes one frame and writes it with a single Write call,
// so a crash can only ever leave a *prefix* of the frame behind — the
// torn-tail shape recover() knows how to drop.
func (l *Log) appendFrame(frame []sparse.Entry) error {
	buf := make([]byte, frameHdr, frameHdr+len(frame)*recordLen)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(frame)))
	for _, e := range frame {
		buf = sparse.AppendEntry(buf, e)
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHdr:]))
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("feed: appending frame: %w", err)
	}
	l.records += int64(len(frame))
	l.size += int64(len(buf))
	return nil
}

// sync flushes appended frames to stable storage.
func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("feed: syncing log: %w", err)
	}
	return nil
}

// Scan re-reads the log from disk and streams every acknowledged record
// through visit in append order. It revalidates each frame, so it is
// usable as the (twice-called) entry stream of a Converter.
func (l *Log) Scan(visit func(sparse.Entry) error) error {
	br := bufio.NewReaderSize(io.NewSectionReader(l.f, int64(headerLen), l.size-int64(headerLen)), 1<<20)
	records, end, err := scanFrames(br, l.path, int64(headerLen), l.size, visit)
	if err != nil {
		return err
	}
	if records != l.records || end != l.size {
		return fmt.Errorf("feed: %s: log changed under scan (%d records to offset %d, expected %d to %d)",
			l.path, records, end, l.records, l.size)
	}
	return nil
}

// Truncate drops every record, resetting the log to its header — called
// after a successful compaction has made the records durable in a delta
// shard.
func (l *Log) Truncate() error {
	if err := l.f.Truncate(int64(headerLen)); err != nil {
		return fmt.Errorf("feed: truncating log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("feed: syncing truncated log: %w", err)
	}
	if _, err := l.f.Seek(int64(headerLen), io.SeekStart); err != nil {
		return fmt.Errorf("feed: seeking truncated log: %w", err)
	}
	l.records, l.size = 0, int64(headerLen)
	return nil
}

// Records returns the number of acknowledged (pending) records.
func (l *Log) Records() int64 { return l.records }

// Items returns the item-catalog width the log was opened with.
func (l *Log) Items() int { return l.n }

// RecoveredBytes reports how many torn-tail bytes OpenLog truncated
// (0 = the log was clean).
func (l *Log) RecoveredBytes() int64 { return l.recovered }

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }
