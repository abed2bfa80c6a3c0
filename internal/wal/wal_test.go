package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, l *Log) []string {
	t.Helper()
	var got []string
	if err := l.Range(func(i int64, p []byte) error {
		if int64(len(got)) != i {
			t.Fatalf("Range index %d, expected %d", i, len(got))
		}
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	return got
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 25)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.Count() != 25 {
		t.Fatalf("Count after reopen: %d, want 25", l2.Count())
	}
	got := collect(t, l2)
	for i, s := range got {
		if want := fmt.Sprintf("record-%04d", i); s != want {
			t.Fatalf("record %d: %q, want %q", i, s, want)
		}
	}
	// Appends continue after the recovered tail (the default fsync
	// batch of 1 flushes every append, so Range sees them on disk).
	appendN(t, l2, 25, 5)
	if n := len(collect(t, l2)); n != 30 {
		t.Fatalf("records after reopen-append: %d, want 30", n)
	}
}

// TestOneLogFile: however much is appended, the directory holds one
// log file, and it reopens with every record.
func TestOneLogFile(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 1 || filepath.Base(segs[0]) != logName {
		t.Fatalf("log files %v, want the one %s", segs, logName)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if got := collect(t, l2); len(got) != 40 || got[39] != "record-0039" {
		t.Fatalf("bad tail after reopen: %d records", len(got))
	}
}

// TestOpenRefusesSegmentedDir: a directory holding more than one log
// segment — what a binary that rotated its log left behind — is refused
// by name, and its files are left alone.
func TestOpenRefusesSegmentedDir(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	second := filepath.Join(dir, "wal-00000002.seg")
	if err := os.WriteFile(second, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "wal-00000002.seg") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Open of a segmented dir: %v, want a refusal naming the dir and its segments", err)
	}
	if err := os.Remove(second); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.Count() != 3 {
		t.Fatalf("Count after the refusal: %d, want 3", l2.Count())
	}
}

// logPath returns the path of the log file.
func logPath(dir string) string { return filepath.Join(dir, logName) }

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Chop the last record mid-payload: the shape of a crash mid-write.
	path := logPath(dir)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	l2 := openT(t, dir, Options{})
	if l2.Count() != 9 {
		t.Fatalf("Count after torn tail: %d, want 9", l2.Count())
	}
	// The torn frame is gone from disk and appends resume cleanly.
	appendN(t, l2, 9, 1)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3 := openT(t, dir, Options{})
	defer l3.Close()
	got := collect(t, l3)
	if len(got) != 10 || got[9] != "record-0009" {
		t.Fatalf("after torn-tail recovery + append: %v", got)
	}
}

func TestTornTailBadCRCAtEOF(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 6)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip the final byte of the file: the last record's payload was
	// torn but its full length made it to disk.
	path := logPath(dir)
	fi, _ := os.Stat(path)
	flipByte(t, path, fi.Size()-1)

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.Count() != 5 {
		t.Fatalf("Count after bad-CRC tail: %d, want 5", l2.Count())
	}
}

func TestCorruptMidSegmentFailsWithOffset(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Damage the first record's payload: valid records follow, so this
	// cannot be a torn tail and must fail loudly.
	path := logPath(dir)
	flipByte(t, path, headerSize+2)

	_, err := Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open: got %v, want CorruptError", err)
	}
	if ce.File != filepath.Base(path) || ce.Offset != 0 {
		t.Fatalf("CorruptError names %s@%d, want %s@0", ce.File, ce.Offset, filepath.Base(path))
	}
}

func TestFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{FsyncBatch: 4})
	appendN(t, l, 0, 10)
	st := l.Stats()
	if st.Fsyncs != 2 { // after records 4 and 8
		t.Fatalf("fsyncs with batch 4 after 10 appends: %d, want 2", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st = l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("fsyncs after explicit Sync: %d, want 3", st.Fsyncs)
	}
	// A redundant Sync with nothing pending is free.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st = l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("no-op Sync still fsynced: %d", st.Fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAbandonLosesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{FsyncBatch: 100})
	appendN(t, l, 0, 7)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendN(t, l, 7, 3) // buffered, never synced
	if err := l.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.Count() != 7 {
		t.Fatalf("Count after Abandon: %d, want the 7 synced records", l2.Count())
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if s, err := LatestSnapshot(dir); err != nil || s != nil {
		t.Fatalf("LatestSnapshot empty dir: %v, %v", s, err)
	}
	s1 := &Snapshot{Version: 1, Applied: 100, VLast: 5000, Algorithm: "DemCOM",
		Seed: 42, Served: 60, Matched: 41, RevenueBits: math.Float64bits(123.75)}
	s2 := &Snapshot{Version: 1, Applied: 200, VLast: 9000, Algorithm: "DemCOM",
		Seed: 42, Served: 120, Matched: 83, RevenueBits: math.Float64bits(250.5)}
	if err := WriteSnapshot(dir, s1); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, s2); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, s2) {
		t.Fatalf("LatestSnapshot: %+v, want %+v", got, s2)
	}
	// Corrupt the newest manifest: recovery falls back to the older one.
	flipByte(t, filepath.Join(dir, SnapshotName(200)), headerSize+3)
	got, err = LatestSnapshot(dir)
	if err != nil {
		t.Fatalf("LatestSnapshot after corruption: %v", err)
	}
	if got == nil || !reflect.DeepEqual(got, s1) {
		t.Fatalf("fallback snapshot: %+v, want %+v", got, s1)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= snapKeep+3; i++ {
		if err := WriteSnapshot(dir, &Snapshot{Version: 1, Applied: int64(i * 10)}); err != nil {
			t.Fatalf("WriteSnapshot %d: %v", i, err)
		}
	}
	names, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("listSnapshots: %v", err)
	}
	if len(names) != snapKeep {
		t.Fatalf("retained %d snapshots, want %d", len(names), snapKeep)
	}
}

// TestSnapshotCrashBeforeRenameFallsBack models a crash between the
// temp-file write and the rename: the orphaned .tmp must be invisible
// to recovery (the older manifest wins) and swept by the next write.
func TestSnapshotCrashBeforeRenameFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1 := &Snapshot{Version: 1, Applied: 100, VLast: 5000, Algorithm: "DemCOM", Seed: 42,
		Served: 60, Matched: 41, RevenueBits: math.Float64bits(99.5)}
	if err := WriteSnapshot(dir, s1); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// The crash artifact: a fully written, never-renamed temp manifest
	// at a newer position.
	tmp := filepath.Join(dir, SnapshotName(200)+".tmp")
	if err := os.WriteFile(tmp, []byte("torn snapshot bytes"), 0o644); err != nil {
		t.Fatalf("writing tmp: %v", err)
	}

	got, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if got == nil || !reflect.DeepEqual(got, s1) {
		t.Fatalf("recovery used %+v, want the pre-crash manifest %+v", got, s1)
	}
	// The next successful write sweeps the stale temp.
	s3 := &Snapshot{Version: 1, Applied: 300, Algorithm: "DemCOM", Seed: 42}
	if err := WriteSnapshot(dir, s3); err != nil {
		t.Fatalf("WriteSnapshot after crash: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp %s survived the next write (err=%v)", tmp, err)
	}
	if got, err := LatestSnapshot(dir); err != nil || got == nil || !reflect.DeepEqual(got, s3) {
		t.Fatalf("LatestSnapshot after recovery write: %+v, %v", got, err)
	}
}

// TestSnapshotPruneKeepsLastVerifiedManifest corrupts every manifest
// inside the retention window: pruning must not delete the older
// manifest that still verifies — it is the only recoverable checkpoint.
func TestSnapshotPruneKeepsLastVerifiedManifest(t *testing.T) {
	dir := t.TempDir()
	valid := &Snapshot{Version: 1, Applied: 10, Algorithm: "DemCOM", Seed: 42}
	if err := WriteSnapshot(dir, valid); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Fill the retention window above it with damaged manifests — the
	// shape of a run of torn writes or a failing disk.
	for i := 0; i < snapKeep; i++ {
		path := filepath.Join(dir, SnapshotName(int64(20+10*i)))
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatalf("writing damaged manifest: %v", err)
		}
	}

	pruneSnapshots(dir)
	got, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if got == nil || !reflect.DeepEqual(got, valid) {
		t.Fatalf("prune deleted the last verified manifest: got %+v", got)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []struct {
		ev  core.Event
		seq int64
	}{
		{core.Event{Time: 7, Kind: core.WorkerArrival, Worker: &core.Worker{
			ID: 12, Arrival: 7, Loc: geo.Point{X: 1.25, Y: -3.5}, Radius: 0.1 + 0.2, // not exactly 0.3
			Platform: 2, History: []float64{10.5, 1.0 / 3.0}}}, 4},
		{core.Event{Time: 9, Kind: core.RequestArrival, Request: &core.Request{
			ID: 99, Arrival: 9, Loc: geo.Point{X: math.Pi, Y: math.Sqrt2}, Value: 55.125,
			Platform: 1}}, -1},
		{core.Event{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{
			ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 1, Platform: 1}}, 0},
	}
	var buf []byte
	for _, tc := range events {
		var err error
		buf, err = AppendEvent(buf[:0], tc.ev, tc.seq)
		if err != nil {
			t.Fatalf("AppendEvent: %v", err)
		}
		got, seq, err := DecodeEvent(buf)
		if err != nil {
			t.Fatalf("DecodeEvent: %v", err)
		}
		if seq != tc.seq || got.Time != tc.ev.Time || got.Kind != tc.ev.Kind {
			t.Fatalf("decoded header: %+v seq %d", got, seq)
		}
		switch tc.ev.Kind {
		case core.WorkerArrival:
			w, g := tc.ev.Worker, got.Worker
			if g.ID != w.ID || g.Arrival != w.Arrival || g.Loc != w.Loc ||
				math.Float64bits(g.Radius) != math.Float64bits(w.Radius) || g.Platform != w.Platform {
				t.Fatalf("worker: %+v, want %+v", g, w)
			}
			if len(g.History) != len(w.History) {
				t.Fatalf("history: %v, want %v", g.History, w.History)
			}
			for i := range w.History {
				if math.Float64bits(g.History[i]) != math.Float64bits(w.History[i]) {
					t.Fatalf("history[%d]: %v, want %v", i, g.History[i], w.History[i])
				}
			}
		case core.RequestArrival:
			r, g := tc.ev.Request, got.Request
			if g.ID != r.ID || g.Arrival != r.Arrival || g.Loc != r.Loc ||
				math.Float64bits(g.Value) != math.Float64bits(r.Value) || g.Platform != r.Platform {
				t.Fatalf("request: %+v, want %+v", g, r)
			}
		}
	}
	if _, _, err := DecodeEvent([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeEvent accepted a truncated record")
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}
