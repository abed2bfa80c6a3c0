// Package wal is the durability layer under the serving stack: an
// fsync-batched write-ahead log in one file. The serving sequencer
// appends every admitted arrival to the log *before* feeding it to the
// matching engine, so a crashed process can be restarted and re-driven
// to the exact virtual-time point it died at — the engine is a pure
// function of (seed, config, event sequence), which makes the log the
// complete recovery state.
//
// On-disk layout, one directory per server:
//
//	wal-00000001.seg   the log: length+CRC framed records
//
// A record is an event (AppendEvent), a virtual-time tick (AppendTick)
// or a checkpoint (AppendCheckpoint: the configuration fingerprint and a
// counter digest, record 0 of every log the serving layer writes). The
// log holds its own checkpoints, so it needs no other file.
//
// Record framing is [4B little-endian payload length][4B CRC32-C of
// the payload][payload], and a payload is never empty. Open and Range
// read it through one frame loop. A bad frame (an empty one, a length
// above MaxRecordBytes, a frame running past the end of the file, or a
// CRC mismatch) is the torn tail of a crash mid-write only when no
// later offset holds a non-empty frame that verifies: Open truncates it
// away and the log stays usable. A zero-filled tail, what a filesystem
// can leave when a crash extends a file, is such a tail. Any other bad
// frame is real corruption and fails loudly with the file name and the
// frame's byte offset, leaving the file untouched, because silently
// skipping records would fork the recovered engine state away from the
// pre-crash one. Recovery re-drives the whole log and nothing truncates
// it, so it is one file; binaries that rotated it into size-bounded
// segments named the first one the same, and a directory they wrote
// with more than one segment is refused.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

const (
	// headerSize frames every record: 4B payload length + 4B CRC32-C.
	headerSize = 8
	// MaxRecordBytes bounds one payload; a length field above it means
	// the header itself is garbage (torn write or corruption).
	MaxRecordBytes = 16 << 20
	// logName is the log's file in its directory.
	logName = "wal-00000001.seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports unrecoverable log damage: a CRC mismatch or
// malformed frame that is not the torn tail of the log.
type CorruptError struct {
	File   string // log file name
	Offset int64  // byte offset of the bad record's header
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Options configures a Log.
type Options struct {
	// FsyncBatch fsyncs the log after this many appends; values below 1
	// mean every append (the durable default). A batch of N trades a
	// crash window of up to N-1 tail records for fewer fsyncs; the
	// torn-tail truncation on Open absorbs the partial write either way.
	FsyncBatch int
}

// Stats is a point-in-time view of a log's activity counters, the one
// place they are kept: a caller that reports them reads them here.
type Stats struct {
	Records int64 `json:"records"` // records in the log (recovered + appended)
	Appends int64 `json:"appends"` // records appended by this process
	Bytes   int64 `json:"bytes"`   // payload bytes appended by this process
	Fsyncs  int64 `json:"fsyncs"`
	FsyncNs int64 `json:"fsync_ns"`
}

// Log is an append-only record log in one file. It is not safe for
// concurrent use: the serving layer's single sequencer goroutine is
// the only writer, which is exactly the engine's own threading model.
type Log struct {
	dir  string
	opts Options

	f       *os.File
	w       *bufio.Writer
	count   int64            // records in the log
	pending int              // appends since the last fsync
	hdr     [headerSize]byte // frame-header scratch, keeps Append allocation-free

	st Stats
}

// Open opens the directory's log (creating the directory and the file
// when absent), truncates a torn tail, and returns the log positioned
// for appends. Records already present are preserved and counted; read
// them back with Range.
func Open(dir string, opts Options) (*Log, error) {
	if opts.FsyncBatch < 1 {
		opts.FsyncBatch = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// Glob fails only on a malformed pattern, and this one is constant.
	if extra, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(extra) > 1 {
		return nil, fmt.Errorf("wal: %s holds %d log segments (%s ... %s), written by a binary that rotated its log; "+
			"this one reads a single %s: recover it with the binary that wrote it, or start from an empty wal dir",
			dir, len(extra), filepath.Base(extra[0]), filepath.Base(extra[len(extra)-1]), logName)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	records, validSize, _, err := frames(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	// A torn tail is cut so the next append starts on a clean boundary.
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", logName, err)
	}
	// On a fresh file the directory sync makes its creation durable.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{dir: dir, opts: opts, f: f, w: bufio.NewWriter(f), count: records}, nil
}

// Count returns the number of records in the log.
func (l *Log) Count() int64 { return l.count }

// Stats returns the log's activity counters.
func (l *Log) Stats() Stats {
	st := l.st
	st.Records = l.count
	return st
}

// Append writes one non-empty record. The write lands in the OS
// immediately on every FsyncBatch-th append (and is fsynced then); call
// Sync to force durability earlier.
func (l *Log) Append(payload []byte) error {
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(l.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.count++
	l.pending++
	l.st.Appends++
	l.st.Bytes += int64(len(payload))
	if l.pending >= l.opts.FsyncBatch {
		return l.Sync()
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the log. A no-op
// when nothing is pending.
func (l *Log) Sync() error {
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if l.pending == 0 && l.w.Buffered() == 0 {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.pending = 0
	l.st.Fsyncs++
	l.st.FsyncNs += time.Since(t0).Nanoseconds()
	return nil
}

// Close flushes, fsyncs and closes the log.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Abandon closes the log WITHOUT flushing the write buffer: records
// since the last Sync are lost exactly as a SIGKILL would lose them,
// possibly leaving a torn frame behind. No program calls it; it is the
// crash seam internal/serve's recovery tests use in place of killing
// the process, which a test inside the package cannot do.
func (l *Log) Abandon() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Range calls fn for every record in log order, with its zero-based
// index. It reads the file independently of the append handle, so it is
// safe on a freshly opened log before serving starts (the recovery
// re-drive); fn's payload is only valid for the call. Open has cut any
// torn tail, so a log that does not verify to its last byte is corrupt.
func (l *Log) Range(fn func(i int64, payload []byte) error) error {
	f, err := os.Open(filepath.Join(l.dir, logName))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	_, valid, size, err := frames(f, fn)
	if err == nil && valid < size {
		err = &CorruptError{File: logName, Offset: valid, Reason: "bad frame at the end of an opened log"}
	}
	return err
}

// frames is the log's one frame reader. It reads f from the start,
// calls fn (when non-nil) with each record that verifies, and returns
// the record count, the valid prefix (the end of the last good frame)
// and the file's size. A bad frame (an empty one, a length above
// MaxRecordBytes, a frame running past the end of the file, or a CRC
// mismatch) is the torn tail of a crashed write when no later offset
// holds a non-empty frame that verifies: the valid prefix ends there.
// Otherwise it is real corruption, and frames fails with a CorruptError
// naming the file and the bad frame's offset, because skipping records
// would fork the recovered engine state away from the pre-crash one.
func frames(f *os.File, fn func(i int64, payload []byte) error) (records, valid, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	size = fi.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<20)
	var hdr [headerSize]byte
	var buf []byte
	for {
		var bad string
		_, err := io.ReadFull(r, hdr[:])
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		switch {
		case err == io.EOF:
			return records, valid, size, nil
		case err == io.ErrUnexpectedEOF:
			bad = "partial frame header"
		case err != nil:
			return 0, 0, 0, fmt.Errorf("wal: reading %s: %w", logName, err)
		case n == 0:
			bad = "empty frame"
		case n > MaxRecordBytes:
			bad = "record length out of range"
		case valid+headerSize+n > size:
			bad = "record runs past end of file"
		default:
			buf = slices.Grow(buf[:0], int(n))[:n]
			if _, err := io.ReadFull(r, buf); err != nil {
				return 0, 0, 0, fmt.Errorf("wal: reading %s: %w", logName, err)
			}
			if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
				bad = "crc mismatch"
			}
		}
		if bad != "" {
			later, err := verifiesAfter(f, valid, size)
			if err != nil {
				return 0, 0, 0, err
			}
			if later {
				return 0, 0, 0, &CorruptError{File: logName, Offset: valid, Reason: bad}
			}
			return records, valid, size, nil
		}
		if fn != nil {
			if err := fn(records, buf); err != nil {
				return 0, 0, 0, err
			}
		}
		records++
		valid += headerSize + n
	}
}

// verifiesAfter reports whether some offset after off holds a
// non-empty frame that verifies: the proof that a bad frame at off is
// not a torn tail. An empty frame proves nothing: it is bad itself, and
// zero-filled bytes verify as one.
func verifiesAfter(f *os.File, off, size int64) (bool, error) {
	var hdr [headerSize]byte
	var buf []byte
	for p := off + 1; p+headerSize < size; p++ {
		if _, err := f.ReadAt(hdr[:], p); err != nil {
			return false, fmt.Errorf("wal: reading %s: %w", logName, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n == 0 || n > MaxRecordBytes || p+headerSize+n > size {
			continue
		}
		buf = slices.Grow(buf[:0], int(n))[:n]
		if _, err := f.ReadAt(buf, p+headerSize); err != nil {
			return false, fmt.Errorf("wal: reading %s: %w", logName, err)
		}
		if crc32.Checksum(buf, castagnoli) == binary.LittleEndian.Uint32(hdr[4:8]) {
			return true, nil
		}
	}
	return false, nil
}

// syncDir fsyncs a directory so a file creation survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
