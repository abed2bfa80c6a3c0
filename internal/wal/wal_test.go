package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestOpenEveryTruncationAndFlip holds Open to its one torn-tail rule
// at every byte of a small log. Cut at any offset, the log keeps
// exactly the complete frames before the cut. With any one byte flipped
// (or a length field set to all ones), a bad last frame is a torn tail
// and the other k-1 records stay; a bad frame anywhere else has a
// verifying frame after it, so Open fails naming that frame's offset
// and leaves the file as it was.
func TestOpenEveryTruncationAndFlip(t *testing.T) {
	const k = 8
	src := t.TempDir()
	l := openT(t, src, Options{})
	appendN(t, l, 0, k)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	orig, err := os.ReadFile(logPath(src))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(orig))
	frame := size / k // every record-%04d payload is the same length

	// openDamaged writes data as a log, opens it, and returns the log
	// (nil on error), the file size Open left and Open's error.
	openDamaged := func(data []byte) (*Log, int64, error) {
		dir := t.TempDir()
		if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		fi, serr := os.Stat(logPath(dir))
		if serr != nil {
			t.Fatal(serr)
		}
		return l, fi.Size(), err
	}
	keeps := func(what string, l *Log, left int64, err error, n int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: Open: %v, want %d records", what, err, n)
		}
		defer l.Close()
		got := collect(t, l)
		if l.Count() != n || int64(len(got)) != n || left != n*frame {
			t.Fatalf("%s: Count %d, Range %d records, file %d bytes; want %d records in %d bytes",
				what, l.Count(), len(got), left, n, n*frame)
		}
		for i, p := range got {
			if want := fmt.Sprintf("record-%04d", i); p != want {
				t.Fatalf("%s: record %d = %q, want %q", what, i, p, want)
			}
		}
	}
	fails := func(what string, l *Log, left int64, err error, at int64) {
		t.Helper()
		var ce *CorruptError
		if !errors.As(err, &ce) {
			if l != nil {
				l.Close()
			}
			t.Fatalf("%s: Open: %v, want a CorruptError at offset %d", what, err, at)
		}
		if ce.File != logName || ce.Offset != at || left != size {
			t.Fatalf("%s: %v, file %d bytes; want offset %d in %s, file %d bytes untouched",
				what, err, left, at, logName, size)
		}
	}

	for cut := int64(0); cut <= size; cut++ {
		l, left, err := openDamaged(orig[:cut])
		keeps(fmt.Sprintf("cut at %d", cut), l, left, err, cut/frame)
	}
	damage := func(what string, at int64, data []byte) {
		t.Helper()
		l, left, err := openDamaged(data)
		if at >= (k-1)*frame {
			keeps(what, l, left, err, k-1)
		} else {
			fails(what, l, left, err, at/frame*frame)
		}
	}
	for b := int64(0); b < size; b++ {
		data := slices.Clone(orig)
		data[b] ^= 0xFF
		damage(fmt.Sprintf("byte %d flipped", b), b, data)
	}
	for i := int64(0); i < k; i++ {
		data := slices.Clone(orig)
		copy(data[i*frame:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		damage(fmt.Sprintf("record %d length all ones", i), i*frame, data)
	}
}

// TestRangeNamesCorruptOffset: Range reads through the same frame
// reader as Open, so damage that appears after Open is a CorruptError
// naming the bad frame's offset, a torn tail included (Open cut it).
func TestRangeNamesCorruptOffset(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	defer l.Close()
	appendN(t, l, 0, 6)
	path := logPath(dir)
	fi, _ := os.Stat(path)
	frame := fi.Size() / 6
	for _, tc := range []struct {
		name string
		at   int64 // the byte flipped
		want int64 // the offset Range must name
	}{
		{"mid-log payload", 2*frame + headerSize + 1, 2 * frame},
		{"last frame payload", 5*frame + headerSize + 1, 5 * frame},
	} {
		flipByte(t, path, tc.at)
		err := l.Range(func(int64, []byte) error { return nil })
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset != tc.want {
			t.Errorf("%s: Range: %v, want a CorruptError at offset %d", tc.name, err, tc.want)
		}
		flipByte(t, path, tc.at)
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

// TestZeroFilledTail: zeros after the last record (what a filesystem
// can leave when a crash extends a file) are a torn tail, cut on Open;
// zeros with a verifying frame after them are corruption at the first
// zero frame.
func TestZeroFilledTail(t *testing.T) {
	src := t.TempDir()
	l := openT(t, src, Options{})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	orig, err := os.ReadFile(logPath(src))
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 4096)

	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir), append(slices.Clone(orig), zeros...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	if got := collect(t, l2); l2.Count() != 3 || len(got) != 3 || got[2] != "record-0002" {
		t.Fatalf("zero tail: Count %d, %d records; want the 3 records", l2.Count(), len(got))
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fi, err := os.Stat(logPath(dir)); err != nil || fi.Size() != int64(len(orig)) {
		t.Fatalf("zero tail left the file at %v bytes (%v), want the %d-byte prefix", fi.Size(), err, len(orig))
	}

	dir = t.TempDir()
	frame := int64(len(orig)) / 3
	data := append(append(slices.Clone(orig), zeros...), orig[frame:2*frame]...)
	if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != int64(len(orig)) {
		t.Fatalf("zeros before a valid frame: Open: %v, want a CorruptError at offset %d", err, len(orig))
	}
}

func TestAppendRejectsEmptyRecord(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("Append accepted an empty record")
	}
	if l.Count() != 0 {
		t.Fatalf("Count after a refused append: %d", l.Count())
	}
}

func TestCheckpointCodec(t *testing.T) {
	c := Checkpoint{Applied: 256, Fingerprint: Fingerprint{Algorithm: "DemCOM", Seed: 42, ServiceTicks: 3,
		Platforms: []core.PlatformID{1, 2}, MaxValueBits: math.Float64bits(99.5),
		Faults: "{DropRate:0.25}", Window: 50, PricingRev: 1},
		Served: 60, Matched: 41, RevenueBits: math.Float64bits(123.75)}
	p, err := AppendCheckpoint([]byte("kept"), &c)
	if err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	if string(p[:4]) != "kept" {
		t.Fatalf("AppendCheckpoint overwrote its buffer: %q", p[:4])
	}
	p = p[4:]
	if !IsCheckpoint(p) || IsTick(p) {
		t.Fatalf("IsCheckpoint/IsTick on a checkpoint record: %v/%v", IsCheckpoint(p), IsTick(p))
	}
	got, err := DecodeCheckpoint(p)
	if err != nil || !reflect.DeepEqual(got, c) {
		t.Fatalf("DecodeCheckpoint: %+v, %v; want %+v", got, err, c)
	}
	if _, _, err := DecodeEvent(p); err == nil {
		t.Fatal("DecodeEvent accepted a checkpoint record")
	}
	for _, bad := range []string{
		`{"applied":1,"unknown":2}`,
		` {"applied":1}`,
		`{"applied":1,"applied":1}`,
		`{"APPLIED":1}`,
	} {
		if _, err := DecodeCheckpoint(append([]byte{checkpointKind}, bad...)); err == nil {
			t.Errorf("DecodeCheckpoint accepted %s", bad)
		}
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

// FuzzDecodeEvent holds the three record decoders to their encoders: no
// input panics, and whatever one of them accepts re-encodes to the same
// bytes, so a decoded record is exactly the record that was written.
func FuzzDecodeEvent(f *testing.F) {
	w, _ := AppendEvent(nil, core.Event{Time: 7, Kind: core.WorkerArrival, Worker: &core.Worker{
		ID: 12, Arrival: 7, Loc: geo.Point{X: 1.25, Y: -3.5}, Radius: 0.3,
		Platform: 2, History: []float64{10.5, math.NaN()}}}, 4)
	r, _ := AppendEvent(nil, core.Event{Time: 9, Kind: core.RequestArrival, Request: &core.Request{
		ID: 99, Arrival: 9, Loc: geo.Point{X: math.Pi}, Value: 55.125, Platform: 1}}, -1)
	c, _ := AppendCheckpoint(nil, &Checkpoint{Applied: 3, Fingerprint: Fingerprint{Algorithm: "TOTA", Platforms: []core.PlatformID{1, 2},
		Faults: "{DropRate:0.5}"}, Served: 1, Matched: 1, RevenueBits: math.Float64bits(2.5)})
	for _, seed := range [][]byte{w, r, AppendTick(nil, 1<<40), c, {}, {0xFE}, {0xFF}, {1}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if ev, seq, err := DecodeEvent(p); err == nil {
			if re, err := AppendEvent(nil, ev, seq); err != nil || !bytes.Equal(re, p) {
				t.Fatalf("event %x re-encodes to %x (%v)", p, re, err)
			}
		}
		if tm, err := DecodeTick(p); err == nil {
			if re := AppendTick(nil, tm); !bytes.Equal(re, p) {
				t.Fatalf("tick %x re-encodes to %x", p, re)
			}
		}
		if c, err := DecodeCheckpoint(p); err == nil {
			if re, err := AppendCheckpoint(nil, &c); err != nil || !bytes.Equal(re, p) {
				t.Fatalf("checkpoint %q re-encodes to %q (%v)", p, re, err)
			}
		}
	})
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
