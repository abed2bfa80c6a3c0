// Package wal is the durability layer under the serving stack: a
// segmented, fsync-batched write-ahead event log plus snapshot
// manifests. The serving sequencer appends every admitted arrival to
// the log *before* feeding it to the matching engine, so a crashed
// process can be restarted and re-driven to the exact virtual-time
// point it died at — the engine is a pure function of (seed, config,
// event sequence), which makes the log the complete recovery state.
//
// On-disk layout, one directory per server:
//
//	wal-00000001.seg   length+CRC framed records, rotated by size
//	wal-00000002.seg   ...
//	snap-0000000000012288.snap   checkpoint manifest (see Snapshot)
//
// Record framing is [4B little-endian payload length][4B CRC32-C of
// the payload][payload]. Open scans every segment: a torn final record
// in the final segment (the expected shape of a crash mid-write) is
// truncated away and the log stays usable; a CRC mismatch anywhere
// else is real corruption and fails loudly with the segment name and
// byte offset, because silently skipping records would fork the
// recovered engine state away from the pre-crash one.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crossmatch/internal/metrics"
)

const (
	// headerSize frames every record: 4B payload length + 4B CRC32-C.
	headerSize = 8
	// DefaultSegmentBytes rotates segments at 8 MiB.
	DefaultSegmentBytes = 8 << 20
	// MaxRecordBytes bounds one payload; a length field above it means
	// the header itself is garbage (torn write or corruption).
	MaxRecordBytes = 16 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports unrecoverable log damage: a CRC mismatch or
// malformed frame that is not the torn tail of the final segment.
type CorruptError struct {
	Segment string // segment file name
	Offset  int64  // byte offset of the bad record's header
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// reaches this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// FsyncBatch fsyncs the active segment after this many appends;
	// values below 1 mean every append (the durable default). A batch of
	// N trades a crash window of up to N-1 tail records for fewer
	// fsyncs; the torn-tail truncation on Open absorbs the partial
	// write either way.
	FsyncBatch int
	// Metrics, when non-nil, receives wal_appends / wal_fsyncs /
	// wal_fsync_ns counters as the log runs.
	Metrics *metrics.Collector
}

// Stats is a point-in-time view of a log's activity counters.
type Stats struct {
	Records  int64 `json:"records"`  // records in the log (recovered + appended)
	Segments int   `json:"segments"` // segment files, including the active one
	Appends  int64 `json:"appends"`  // records appended by this process
	Bytes    int64 `json:"bytes"`    // payload bytes appended by this process
	Fsyncs   int64 `json:"fsyncs"`
	FsyncNs  int64 `json:"fsync_ns"`
}

// Log is an append-only segmented record log. It is not safe for
// concurrent use: the serving layer's single sequencer goroutine is
// the only writer, which is exactly the engine's own threading model.
type Log struct {
	dir      string
	opts     Options
	segments []string // ascending segment file names, active last

	f       *os.File
	w       *bufio.Writer
	size    int64            // active segment size including buffered bytes
	segIdx  int              // numeric index of the active segment
	count   int64            // records across all segments
	pending int              // appends since the last fsync
	hdr     [headerSize]byte // frame-header scratch, keeps Append allocation-free

	st Stats
}

// Open scans the directory's segments (creating the directory and the
// first segment when empty), truncates a torn tail in the final
// segment, and returns the log positioned for appends. Records already
// present are preserved and counted; read them back with Range.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncBatch < 1 {
		opts.FsyncBatch = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	var total int64
	for i, name := range segs {
		final := i == len(segs)-1
		records, validSize, err := scanSegment(filepath.Join(dir, name), final)
		if err != nil {
			return nil, err
		}
		total += records
		if final {
			path := filepath.Join(dir, name)
			fi, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if fi.Size() > validSize {
				// Torn tail: the crash interrupted the last write. Cut the
				// partial frame so the next append starts on a clean boundary.
				if err := os.Truncate(path, validSize); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
				}
			}
		}
	}
	l.segments = segs
	l.count = total
	l.segIdx = segIndex(segs[len(segs)-1])
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = fi.Size()
	return l, nil
}

// Count returns the number of records in the log.
func (l *Log) Count() int64 { return l.count }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns the log's activity counters.
func (l *Log) Stats() Stats {
	st := l.st
	st.Records = l.count
	st.Segments = len(l.segments)
	return st
}

// Append writes one record. The write lands in the OS immediately on
// every FsyncBatch-th append (and is fsynced then); call Sync to force
// durability earlier, e.g. before a snapshot manifest is written.
func (l *Log) Append(payload []byte) error {
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), MaxRecordBytes)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(l.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(headerSize + len(payload))
	l.count++
	l.pending++
	l.st.Appends++
	l.st.Bytes += int64(len(payload))
	l.opts.Metrics.Add(metrics.WALAppends, 1)
	l.opts.Metrics.Add(metrics.WALBytes, int64(len(payload)))
	if l.pending >= l.opts.FsyncBatch {
		return l.Sync()
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the active segment. A no-op
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
	d := time.Since(t0)
	l.pending = 0
	l.st.Fsyncs++
	l.st.FsyncNs += d.Nanoseconds()
	l.opts.Metrics.Add(metrics.WALFsyncs, 1)
	l.opts.Metrics.Add(metrics.WALFsyncNs, d.Nanoseconds())
	return nil
}

// Close flushes, fsyncs and closes the active segment.
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

// Abandon closes the active segment WITHOUT flushing the write buffer —
// the crash-simulation hook for recovery tests: records since the last
// Sync are lost exactly as a SIGKILL would lose them, possibly leaving
// a torn frame behind.
func (l *Log) Abandon() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// rotate seals the active segment (flush + fsync) and opens the next.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = nil
	return l.openSegment(l.segIdx + 1)
}

func (l *Log) openSegment(idx int) error {
	name := fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = 0
	l.segIdx = idx
	l.segments = append(l.segments, name)
	if err := syncDir(l.dir); err != nil {
		f.Close()
		l.f = nil
		return err
	}
	return nil
}

// Range calls fn for every record in log order, with its zero-based
// index. It reads the segment files independently of the append
// handle, so it is safe on a freshly opened log before serving starts
// (the recovery re-drive); fn's payload is only valid for the call.
func (l *Log) Range(fn func(i int64, payload []byte) error) error {
	var idx int64
	for _, name := range l.segments {
		if err := rangeSegment(filepath.Join(l.dir, name), func(p []byte) error {
			err := fn(idx, p)
			idx++
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// rangeSegment iterates one already-validated segment's records.
func rangeSegment(path string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if int64(n) > MaxRecordBytes {
			return &CorruptError{Segment: filepath.Base(path), Reason: "record length out of range"}
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return &CorruptError{Segment: filepath.Base(path), Reason: "crc mismatch"}
		}
		if err := fn(buf); err != nil {
			return err
		}
	}
}

// scanSegment validates one segment's framing. In the final segment a
// malformed or CRC-failing record that runs to end of file is the torn
// tail of a crashed write: the scan stops there and reports the valid
// prefix length for truncation. Anywhere else — an earlier segment, or
// a bad record with intact data after it — the damage cannot be a torn
// tail and the scan fails with a CorruptError naming segment and
// offset.
func scanSegment(path string, final bool) (records int64, validSize int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	fileSize := fi.Size()
	name := filepath.Base(path)
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	var buf []byte
	var off int64
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return records, off, nil // clean end
			}
			// Partial header at end of file.
			if final {
				return records, off, nil
			}
			return 0, 0, &CorruptError{Segment: name, Offset: off, Reason: "truncated header in non-final segment"}
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		frameEnd := off + headerSize + n
		if n > MaxRecordBytes || frameEnd > fileSize {
			// A garbage length or a frame running past EOF: torn tail in
			// the final segment, corruption anywhere else.
			if final {
				return records, off, nil
			}
			return 0, 0, &CorruptError{Segment: name, Offset: off, Reason: "record frame exceeds segment"}
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if final {
				return records, off, nil
			}
			return 0, 0, &CorruptError{Segment: name, Offset: off, Reason: "truncated payload in non-final segment"}
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			// A bad CRC on the very last frame of the final segment is a
			// torn payload write; with intact data after it, it is real
			// mid-segment corruption.
			if final && frameEnd == fileSize {
				return records, off, nil
			}
			return 0, 0, &CorruptError{Segment: name, Offset: off, Reason: "crc mismatch"}
		}
		off = frameEnd
		records++
	}
}

// listSegments returns the directory's segment file names, ascending.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segIndex(name string) int {
	var idx int
	fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &idx)
	return idx
}

// syncDir fsyncs a directory so renames and creations survive a crash.
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
