package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/wal"
)

// crashForTest simulates a SIGKILL for recovery tests: the sequencer
// is stopped and the log's file handles are dropped without the final
// checkpoint, the buffered-tail flush, or the engine finish that a clean
// Close performs. Appends since the last fsync are lost, exactly as a
// hard kill would lose them.
func (s *Server) crashForTest() {
	s.BeginDrain()
	<-s.seqDone
	s.closeOnce.Do(func() {
		if s.wal != nil {
			_ = s.wal.Abandon()
		}
		s.closeErr = fmt.Errorf("serve: crashed (test hook)")
	})
}

// TestCollectDecisionsPrefersReadyDecisions is the regression test for
// the batch decision-wait select race: with an already-expired deadline
// and every decision already buffered, the old loop (shared timer kept
// hot via Reset(0)) let Go's select pick pseudo-randomly between the
// ready decision and the ready timer, misreporting roughly half the
// computed decisions as 504s. The fixed loop polls the decision channel
// first, so a computed decision must never be reported as a miss —
// across 400 ready items the old code passes this with probability
// ~2^-400.
func TestCollectDecisionsPrefersReadyDecisions(t *testing.T) {
	srv, _ := startServer(t, Options{Algorithm: platform.AlgDemCOM, Seed: 1,
		Deadline: time.Nanosecond})

	const n = 400
	items := make([]*ingest, n)
	outs := make([]WireDecision, n)
	for i := range items {
		it := &ingest{
			ev:   core.Event{Kind: core.RequestArrival, Request: &core.Request{ID: int64(i)}},
			seq:  -1,
			done: make(chan WireDecision, 1),
		}
		it.done <- WireDecision{Status: StatusOK, Kind: "request", ID: int64(i)}
		items[i] = it
	}
	srv.collectDecisions(items, outs)
	for i := range outs {
		if outs[i].Status != StatusOK {
			t.Fatalf("line %d: computed decision reported as %q", i, outs[i].Status)
		}
	}
	if miss := srv.ctr.deadlineMiss.Load(); miss != 0 {
		t.Fatalf("deadline misses on fully-computed batch: %d", miss)
	}
}

// requestOnlyStream builds a replay stream of n bare requests (no
// workers, so every decision is an unmatched 200) with distinct
// ascending arrival ticks.
func requestOnlyStream(t *testing.T, n int) *core.Stream {
	t.Helper()
	evs := make([]core.Event, n)
	for i := range evs {
		r := &core.Request{ID: int64(i + 1), Arrival: core.Time(i + 1),
			Loc: geo.Point{X: 0.5, Y: 0.5}, Value: 1, Platform: 1}
		evs[i] = core.Event{Time: r.Arrival, Kind: core.RequestArrival, Request: r}
	}
	stream, err := core.NewStream(evs)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return stream
}

// TestBatchDeadlineSparesComputedDecisions exercises the same race over
// HTTP: one large NDJSON batch in reverse recorded order, so the first
// line's decision completes last and the deadline reliably expires
// mid-batch while later lines' decisions are long computed. Every line
// whose decision was computed well before the deadline must come back
// 200, never 504.
func TestBatchDeadlineSparesComputedDecisions(t *testing.T) {
	const (
		n       = 100
		delay   = 3 * time.Millisecond
		dead    = 150 * time.Millisecond
		safeIdx = 20 // recorded index processed by ~60ms, far inside the deadline
	)
	stream := requestOnlyStream(t, n)
	_, ts := startServer(t, Options{Algorithm: platform.AlgDemCOM, Seed: 1,
		Replay: stream, QueueCap: n + 1, Deadline: dead, ProcessDelay: delay})

	var body strings.Builder
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(&body, "{\"id\":%d}\n", i+1)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/requests", "application/x-ndjson",
		strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()

	body2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	lines := splitLines(body2)
	if len(lines) != n {
		t.Fatalf("got %d response lines, want %d", len(lines), n)
	}
	misses := 0
	for i, line := range lines {
		var d WireDecision
		if err := unmarshalStrict(line, &d); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		recorded := n - 1 - i
		switch d.Status {
		case StatusOK:
		case StatusDeadline:
			misses++
			if recorded < safeIdx {
				t.Fatalf("line %d (recorded index %d, computed long before the deadline) reported as a miss", i, recorded)
			}
		default:
			t.Fatalf("line %d: unexpected status %q (%s)", i, d.Status, d.Error)
		}
	}
	// The first line waits ~n*delay = 300ms against a 150ms deadline, so
	// the expiry path must actually have run.
	if misses == 0 {
		t.Fatalf("expected the batch deadline to expire mid-batch; every line returned OK")
	}
}

// TestCrashRecoveryReplayBitIdentical is the headline durability
// criterion: push part of a recorded stream into a WAL-backed server,
// crash it hard (no flush, no final checkpoint), restart on the same
// directory, re-push the whole stream — recovered events dedupe as
// resumed, lost and unpushed ones apply — and the final Result must be
// bit-identical to an uninterrupted offline run. The pushed prefix
// crosses a periodic checkpoint, which the restart verifies. The
// FsyncBatch=64 variant additionally loses the buffered un-fsynced tail
// in the crash, which the re-push must repair. After the crash and
// after the clean close the directory holds the one log file.
func TestCrashRecoveryReplayBitIdentical(t *testing.T) {
	for _, fsyncBatch := range []int{1, 64} {
		t.Run(fmt.Sprintf("fsync-batch-%d", fsyncBatch), func(t *testing.T) {
			stream := testStream(t, 200, 150, 42)
			factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: stream.MaxValue()})
			if err != nil {
				t.Fatalf("FactoryConfigured: %v", err)
			}
			want, err := platform.Run(stream, factory, platform.Config{Seed: 42})
			if err != nil {
				t.Fatalf("offline Run: %v", err)
			}

			dir := t.TempDir()
			opts := Options{Algorithm: platform.AlgDemCOM, Seed: 42, Replay: stream,
				QueueCap: stream.Len() + 1, WALDir: dir, FsyncBatch: fsyncBatch}

			// Phase 1: push a prefix, then crash without a clean shutdown.
			srv1, err := New(opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ts1 := httptest.NewServer(srv1.Handler())
			prefixLen := stream.Len() / 2
			prefix, err := core.NewStream(stream.Events()[:prefixLen])
			if err != nil {
				t.Fatalf("prefix stream: %v", err)
			}
			rep1, err := RunLoad(context.Background(), LoadOptions{
				URL: ts1.URL, Stream: prefix, Conns: 4, Batch: 8, Retries: 5,
				Client: ts1.Client(),
			})
			if err != nil {
				t.Fatalf("RunLoad prefix: %v", err)
			}
			if rep1.Failed != 0 || rep1.Dropped != 0 {
				t.Fatalf("prefix push must deliver everything: %+v", rep1)
			}
			ts1.Close()
			srv1.crashForTest()
			assertOneFile(t, dir)

			// Phase 2: restart on the same directory and finish the stream.
			srv2, err := New(opts)
			if err != nil {
				t.Fatalf("New after crash: %v", err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			rec := srv2.Recovery()
			if !rec.Recovered || rec.Events <= 0 || rec.Events > int64(prefixLen) {
				t.Fatalf("recovery: %+v (pushed %d events before the crash)", rec, prefixLen)
			}
			if fsyncBatch == 1 && rec.Events != int64(prefixLen) {
				t.Fatalf("with per-append fsync every pushed event must survive: recovered %d of %d", rec.Events, prefixLen)
			}
			if rec.SnapshotApplied < checkpointEvery || rec.SnapshotApplied%checkpointEvery != 0 {
				t.Fatalf("recovery verified the checkpoint at %d, want a periodic one", rec.SnapshotApplied)
			}

			rep2, err := RunLoad(context.Background(), LoadOptions{
				URL: ts2.URL, Stream: stream, Conns: 4, Batch: 8, Retries: 5,
				Client: ts2.Client(),
			})
			if err != nil {
				t.Fatalf("RunLoad resume: %v", err)
			}
			if rep2.Failed != 0 || rep2.Dropped != 0 {
				t.Fatalf("resume push must deliver everything: %+v", rep2)
			}
			if rep2.Resumed != rec.Events {
				t.Fatalf("client saw %d resumed duplicates, server recovered %d", rep2.Resumed, rec.Events)
			}

			got, err := srv2.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			assertOneFile(t, dir)
			assertSameResult(t, want, got)
		})
	}
}

// assertOneFile fails unless dir holds exactly its log file.
func assertOneFile(t *testing.T, dir string) {
	t.Helper()
	if files := dirContents(t, dir); len(files) != 1 || files[logFile] == nil {
		t.Fatalf("the wal dir holds %d files, want only %s", len(files), logFile)
	}
}

// TestCrashRecoveryLiveResumesClockAndState covers live mode: after a
// crash, the restarted server re-drives the logged arrivals and resumes
// its virtual clock past the logged high-water mark, so post-restart
// traffic can never trip ErrTimeRegression against recovered state.
func TestCrashRecoveryLiveResumesClockAndState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 9, WALDir: dir, FsyncBatch: 1}

	srv1, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	// Let the virtual clock advance so a from-zero restart would regress.
	time.Sleep(60 * time.Millisecond)
	if _, d := postJSON(t, ts1.Client(), ts1.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`); d.Status != StatusOK {
		t.Fatalf("worker post: %+v", d)
	}
	_, d := postJSON(t, ts1.Client(), ts1.URL+"/v1/requests",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3.5}`)
	if d.Status != StatusOK || !d.Served {
		t.Fatalf("request post: %+v", d)
	}
	stamped := d.VTime
	if stamped < 50 {
		t.Fatalf("expected a visibly advanced clock, got tick %d", stamped)
	}
	ts1.Close()
	srv1.crashForTest()

	srv2, err := New(opts)
	if err != nil {
		t.Fatalf("New after crash: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	rec := srv2.Recovery()
	if rec.Events != 2 || rec.VLast < stamped {
		t.Fatalf("recovery: %+v, want 2 events and clock ≥ %d", rec, stamped)
	}

	// The recovered engine already matched worker 1; a new request on the
	// resumed clock must be processed without a time-regression error.
	_, d = postJSON(t, ts2.Client(), ts2.URL+"/v1/requests",
		`{"id":2,"x":0.5,"y":0.5,"platform":1,"value":1.0}`)
	if d.Status != StatusOK {
		t.Fatalf("post-restart request: %+v", d)
	}
	if d.VTime < stamped {
		t.Fatalf("post-restart tick %d regressed below the pre-crash tick %d", d.VTime, stamped)
	}
	if errs := srv2.Snapshot().Server.EngineErrors; errs != 0 {
		t.Fatalf("engine errors after restart: %d", errs)
	}
	if _, err := srv2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLogEventSteadyStateAllocFree pins the durability cost model: the
// sequencer's WAL append path reuses its encode buffer, so once warm it
// must not allocate per event — and with the WAL off the path is a
// single nil check.
func TestLogEventSteadyStateAllocFree(t *testing.T) {
	srv, _ := startServer(t, Options{Algorithm: platform.AlgDemCOM, Seed: 5,
		WALDir: t.TempDir(), FsyncBatch: 1 << 30})
	ev := core.Event{Time: 1, Kind: core.RequestArrival,
		Request: &core.Request{ID: 1, Arrival: 1, Loc: geo.Point{X: 0.5, Y: 0.5}, Value: 1, Platform: 1}}
	if err := srv.logEvent(ev, -1); err != nil { // warm the encode buffer
		t.Fatalf("logEvent: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.Time++
		ev.Request.Arrival = ev.Time
		if err := srv.logEvent(ev, -1); err != nil {
			t.Fatalf("logEvent: %v", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm WAL append allocates %.1f times per event, want 0", allocs)
	}
}

// logOneWorker runs a live WAL server under opts just long enough to log
// one worker arrival and close cleanly, leaving a one-record log with its
// final checkpoint in opts.WALDir.
func logOneWorker(t *testing.T, opts Options) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	if _, d := postJSON(t, ts.Client(), ts.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`); d.Status != StatusOK {
		t.Fatalf("worker post: %+v", d)
	}
	ts.Close()
	if _, err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRecoveryRejectsConfigMismatch: a WAL written under one engine
// configuration must not boot a server with another — that would
// re-drive cleanly but produce silently different matching state.
func TestRecoveryRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	logOneWorker(t, Options{Algorithm: platform.AlgDemCOM, Seed: 1, WALDir: dir})

	if _, err := New(Options{Algorithm: platform.AlgDemCOM, Seed: 2, WALDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "seed") {
		t.Fatalf("restart with a different seed must fail, got %v", err)
	}
}

// TestRecoveryFingerprintBeforeFirstCheckpoint: a server that dies before
// its first periodic checkpoint still left its configuration on disk,
// because New pins it at record 0 of a fresh log. A restart under
// another value of any fingerprinted field is refused by name instead of
// re-driving the log into different state, and leaves the directory as
// it was; the same configuration recovers; and a non-empty log with no
// checkpoint at record 0 is refused.
func TestRecoveryFingerprintBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 3, WALDir: dir,
		Faults: &fault.Plan{DropRate: 0.25}}
	srv1, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	for i, body := range []string{
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`,
		`{"id":2,"x":0.6,"y":0.5,"platform":2,"radius":0.4}`,
	} {
		if _, d := postJSON(t, ts1.Client(), ts1.URL+"/v1/workers", body); d.Status != StatusOK {
			t.Fatalf("worker %d post: %+v", i+1, d)
		}
	}
	if _, d := postJSON(t, ts1.Client(), ts1.URL+"/v1/requests",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3.5}`); d.Status != StatusOK {
		t.Fatalf("request post: %+v", d)
	}
	ts1.Close()
	srv1.crashForTest()
	before := dirContents(t, dir)

	plan := *opts.Faults
	plan.DropRate = 0.5
	for _, tc := range []struct {
		name, want string
		change     func(*Options)
	}{
		{"algorithm", "algorithm", func(o *Options) { o.Algorithm = platform.AlgTOTA }},
		{"seed", "seed", func(o *Options) { o.Seed = 4 }},
		{"service ticks", "service_ticks", func(o *Options) { o.ServiceTicks = 3 }},
		{"coop", "disable_coop", func(o *Options) { o.DisableCoop = true }},
		{"replay", "replay_events", func(o *Options) { o.Replay = requestOnlyStream(t, 5) }},
		{"window", "window", func(o *Options) { o.Window = 5 }},
		{"batch deadline", "batch_deadline", func(o *Options) { o.BatchDeadline = 5 }},
		{"platforms", "platforms", func(o *Options) { o.Platforms = []core.PlatformID{1, 2, 3} }},
		{"max value", "max_value_bits", func(o *Options) { o.MaxValue = 50 }},
		{"fault plan", "faults", func(o *Options) { o.Faults = &plan }},
		{"no fault plan", "faults", func(o *Options) { o.Faults = nil }},
	} {
		o := opts
		tc.change(&o)
		if srv, err := New(o); err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), "record 0") {
			if err == nil {
				srv.Close()
			}
			t.Errorf("restart with another %s must fail naming it at record 0, got %v", tc.name, err)
		}
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused restart changed the directory: %d files before, %d after", len(before), len(after))
	}

	srv2, err := New(opts)
	if err != nil {
		t.Fatalf("restart under the same configuration: %v", err)
	}
	if rec := srv2.Recovery(); rec.Events != 3 || rec.SnapshotApplied != 0 {
		t.Fatalf("recovery = %+v, want the 3 logged events after the record-0 checkpoint", rec)
	}
	srv2.crashForTest()

	recs := logRecords(t, dir)
	if !wal.IsCheckpoint(recs[0]) {
		t.Fatalf("record 0 is not a checkpoint: %q", recs[0])
	}
	writeLog(t, dir, recs[1:])
	before = dirContents(t, dir)
	if srv, err := New(opts); err == nil || !strings.Contains(err.Error(), "no checkpoint at record 0") {
		if err == nil {
			srv.Close()
		}
		t.Fatalf("a non-empty log without a checkpoint at record 0 must be refused by name, got %v", err)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("the refused directory changed")
	}
}

// TestRecoveryRefusesRetiredFaultPlanString: a checkpoint renders the
// fault plan in the -faults grammar (fault.Plan.String). Older binaries
// rendered it with %+v: first with the retry, breaker and seed fields,
// whose settings the later string no longer told, then without them, a
// string that changed with every field rename. A log whose checkpoint
// carries either string the older binaries wrote for drop=0.2 is
// refused by name.
func TestRecoveryRefusesRetiredFaultPlanString(t *testing.T) {
	for _, retired := range []string{
		"{Seed:0 LatencyRate:0 LatencyMin:0s LatencyMax:0s DropRate:0.2 ClaimErrorRate:0 Outages:[] " +
			"Retry:{MaxAttempts:0 BaseBackoff:0s MaxBackoff:0s Deadline:0s} Breaker:{FailureThreshold:0 CooldownTicks:0}}",
		"{LatencyRate:0 LatencyMin:0s LatencyMax:0s DropRate:0.2 ClaimErrorRate:0 Outages:[]}",
	} {
		dir := t.TempDir()
		plan, err := fault.ParsePlan("drop=0.2")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Algorithm: platform.AlgDemCOM, Seed: 1, WALDir: dir, Faults: plan}
		logOneWorker(t, opts)
		forgeCheckpoint(t, dir, 0, func(c *wal.Checkpoint) { c.Faults = retired })
		srv, err := New(opts)
		if err == nil {
			srv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "faults") || !strings.Contains(err.Error(), "record 0") {
			t.Fatalf("restart on a log with the retired fault-plan string %q must be refused naming faults, got %v", retired, err)
		}
	}
}

// TestFingerprintCoversSpec walks platform.Spec by reflection: setting
// any one field to a non-zero value must change the log fingerprint, so
// a setting added to the spec fails here until checkpoints pin it.
func TestFingerprintCoversSpec(t *testing.T) {
	base := fingerprint(platform.Spec{}, 0)
	typ := reflect.TypeOf(platform.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		var sp platform.Spec
		f := reflect.ValueOf(&sp).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int32, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(2.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			f.Index(0).SetInt(7)
		default:
			t.Fatalf("Spec.%s is a %s; teach this test to set one", typ.Field(i).Name, f.Kind())
		}
		if key, _, _ := fingerprint(sp, 0).Diff(base); key == "" {
			t.Errorf("Spec.%s = %v leaves the fingerprint unchanged", typ.Field(i).Name, f)
		}
	}
}

// TestNewRefusesNegativeServiceTicks: a negative service time is refused
// as the root API refuses it, not run as 0 and fingerprinted as -3.
func TestNewRefusesNegativeServiceTicks(t *testing.T) {
	srv, err := New(Options{Algorithm: platform.AlgTOTA, ServiceTicks: -3, WALDir: t.TempDir()})
	if err == nil {
		srv.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "service ticks -3") {
		t.Fatalf("New with ServiceTicks -3: %v, want an error naming service ticks", err)
	}
}

// dirContents reads every file of dir, by name.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// logFile is the name of the log in its directory.
const logFile = "wal-00000001.seg"

// logRecords returns a copy of every record payload in dir's log.
func logRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs [][]byte
	if err := l.Range(func(_ int64, p []byte) error {
		recs = append(recs, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeLog replaces dir's log with one holding recs.
func writeLog(t *testing.T, dir string, recs [][]byte) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, logFile)); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{FsyncBatch: len(recs) + 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// forgeCheckpoint rewrites the checkpoint at record i of dir's log
// through edit, re-encoded and re-framed so it verifies.
func forgeCheckpoint(t *testing.T, dir string, i int, edit func(*wal.Checkpoint)) {
	t.Helper()
	recs := logRecords(t, dir)
	c, err := wal.DecodeCheckpoint(recs[i])
	if err != nil {
		t.Fatalf("record %d: %v", i, err)
	}
	edit(&c)
	if recs[i], err = wal.AppendCheckpoint(nil, &c); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir, recs)
}

// TestRecoveryRefusesShardedLog: a directory written by a binary that
// kept its checkpoints in snap-*.snap manifests beside the log — the
// sharded engine's (a manifest stamped with shards 3) or an unsharded
// one's (the field zero or absent) — has no checkpoint at record 0. It
// is refused by name and left as it was for the binary that can read it.
func TestRecoveryRefusesShardedLog(t *testing.T) {
	for _, tc := range []struct{ name, field string }{
		{"shards3", `,"shards":3,"shard_reach_bits":4607182418800017408}`},
		{"shards0", `,"shards":0}`},
		{"absent", `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ev, err := wal.AppendEvent(nil, core.Event{Time: 5, Kind: core.WorkerArrival, Worker: &core.Worker{
				ID: liveIDBase + 1, Arrival: 5, Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.4, Platform: 1}}, -1)
			if err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(ev); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			manifest := []byte(`{"version":1,"applied":1,"vlast":5,"algorithm":"TOTA","seed":1,"service_ticks":0,` +
				`"platforms":[1,2],"max_value_bits":0,"served":0,"matched":0,"revenue_bits":0` + tc.field)
			framed := binary.LittleEndian.AppendUint32(nil, uint32(len(manifest)))
			framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(manifest, crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), append(framed, manifest...), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)

			srv, err := New(Options{Algorithm: platform.AlgTOTA, Seed: 1, WALDir: dir})
			if err == nil {
				srv.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "no checkpoint at record 0") ||
				!strings.Contains(err.Error(), "snap-*.snap manifests") ||
				!strings.Contains(err.Error(), "recover it with the binary that wrote it, or start from an empty wal dir") {
				t.Fatalf("restart on a manifest-era log must say why it is refused, got %v", err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestRecoveryPricingRevFingerprint: a checkpoint without pricing_rev is
// what a binary from before the group-draw estimator wrote. DemCOM and
// BatchCOM decisions depend on the estimator's RNG contract, so such a
// log must be refused by name instead of dying on a digest mismatch;
// TOTA and RamCOM never call the estimator and must keep recovering.
func TestRecoveryPricingRevFingerprint(t *testing.T) {
	for _, tc := range []struct {
		alg    string
		refuse bool
	}{
		{platform.AlgDemCOM, true},
		{platform.AlgBatchCOM, true},
		{platform.AlgTOTA, false},
		{platform.AlgRamCOM, false},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Algorithm: tc.alg, Seed: 1, MaxValue: 10, WALDir: dir}
			logOneWorker(t, opts)

			forgeCheckpoint(t, dir, 0, func(c *wal.Checkpoint) {
				if c.PricingRev != pricing.SamplerRev {
					t.Fatalf("checkpoint pricing_rev = %d, want %d", c.PricingRev, pricing.SamplerRev)
				}
				c.PricingRev = 0
			})

			srv2, err := New(opts)
			if !tc.refuse {
				if err != nil {
					t.Fatalf("%s restart on a revision-0 log must recover, got %v", tc.alg, err)
				}
				if rec := srv2.Recovery(); rec.Events != 1 || rec.SnapshotApplied != 1 {
					t.Fatalf("recovery = %+v, want the one logged event verified", rec)
				}
				if _, err := srv2.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "sampler revision 0") || !strings.Contains(err.Error(), "record 0") {
				t.Fatalf("%s restart on a revision-0 log must name the sampler revision and the record, got %v", tc.alg, err)
			}
		})
	}
}

// TestRecoveryVerifiesEveryCheckpoint: recovery checks every checkpoint
// in the log, not only the last. A log crossing one periodic checkpoint
// recovers; with that middle checkpoint's digest or position forged
// (re-framed, so the frame verifies) recovery fails naming its record.
func TestRecoveryVerifiesEveryCheckpoint(t *testing.T) {
	stream := testStream(t, 100, 60, 7)
	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 7, Replay: stream,
		QueueCap: stream.Len() + 1, WALDir: dir, FsyncBatch: 64}
	srv, ts := startServer(t, opts)
	if rep, err := RunLoad(context.Background(), LoadOptions{
		URL: ts.URL, Stream: stream, Conns: 2, Batch: 16, Retries: 5, Client: ts.Client(),
	}); err != nil || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("RunLoad: %v, %+v", err, rep)
	}
	ts.Close()
	if _, err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var at []int
	for i, p := range logRecords(t, dir) {
		if wal.IsCheckpoint(p) {
			at = append(at, i)
		}
	}
	n := stream.Len()
	if n <= checkpointEvery || n >= 2*checkpointEvery {
		t.Fatalf("stream of %d events, want one periodic checkpoint", n)
	}
	if want := []int{0, checkpointEvery + 1, n + 2}; !reflect.DeepEqual(at, want) {
		t.Fatalf("checkpoints at records %v, want %v", at, want)
	}
	srv2, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rec := srv2.Recovery(); rec.Events != int64(n) || rec.SnapshotApplied != int64(n) {
		t.Fatalf("recovery = %+v, want all %d events verified", rec, n)
	}
	srv2.crashForTest()

	clean := dirContents(t, dir)[logFile]
	for _, tc := range []struct {
		name, want string
		edit       func(*wal.Checkpoint)
	}{
		{"served", "digest mismatch", func(c *wal.Checkpoint) { c.Served++ }},
		{"revenue", "digest mismatch", func(c *wal.Checkpoint) { c.RevenueBits ^= 1 }},
		{"applied", "covers", func(c *wal.Checkpoint) { c.Applied-- }},
	} {
		if err := os.WriteFile(filepath.Join(dir, logFile), clean, 0o644); err != nil {
			t.Fatal(err)
		}
		forgeCheckpoint(t, dir, at[1], tc.edit)
		srv, err := New(opts)
		if err == nil {
			srv.Close()
		}
		if name := fmt.Sprintf("record %d", at[1]); err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), name) {
			t.Errorf("forged %s in the middle checkpoint: %v, want %q naming %s", tc.name, err, tc.want, name)
		}
	}
}

// TestRecoveryZeroFilledTail: a restart on a log whose tail is zeros
// (what a filesystem can leave when a crash extends a file) recovers the
// records before them and cuts the zeros.
func TestRecoveryZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 1, WALDir: dir}
	logOneWorker(t, opts)
	path := filepath.Join(dir, logFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("restart on a zero-filled tail: %v", err)
	}
	if rec := srv.Recovery(); rec.Events != 1 || rec.SnapshotApplied != 1 {
		t.Fatalf("recovery = %+v, want the one logged event verified", rec)
	}
	srv.crashForTest()
	if got := dirContents(t, dir)[logFile]; !bytes.Equal(got, clean) {
		t.Fatalf("the log is %d bytes after recovery, want the %d before the zeros", len(got), len(clean))
	}
}

// TestRestartAfterCleanCloseVerifiesSnapshotDigest: a clean shutdown
// writes a final checkpoint; a restart re-drives the full log, which
// crosses a periodic checkpoint, and must verify every checkpoint digest
// bit for bit, then produce the same Result as the uninterrupted
// offline run.
func TestRestartAfterCleanCloseVerifiesSnapshotDigest(t *testing.T) {
	stream := testStream(t, 120, 90, 11)
	if stream.Len() <= checkpointEvery {
		t.Fatalf("stream of %d events crosses no periodic checkpoint", stream.Len())
	}
	factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
	}
	want, err := platform.Run(stream, factory, platform.Config{Seed: 11})
	if err != nil {
		t.Fatalf("offline Run: %v", err)
	}

	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 11, Replay: stream,
		QueueCap: stream.Len() + 1, WALDir: dir}
	srv1, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	if rep, err := RunLoad(context.Background(), LoadOptions{
		URL: ts1.URL, Stream: stream, Conns: 4, Batch: 8, Retries: 5, Client: ts1.Client(),
	}); err != nil || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("RunLoad: %v, %+v", err, rep)
	}
	ts1.Close()
	if _, err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	rec := srv2.Recovery()
	if rec.Events != int64(stream.Len()) || rec.SnapshotApplied != int64(stream.Len()) {
		t.Fatalf("recovery after clean close: %+v, want all %d events and the final checkpoint", rec, stream.Len())
	}
	got, err := srv2.Close()
	if err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	assertSameResult(t, want, got)
}

// drillStream is a short two-platform replay stream: workers of both
// platforms first, so every prefix of two or more events has the full
// platform set, then requests matched inside a platform, across
// platforms and not at all.
func drillStream(t *testing.T) *core.Stream {
	t.Helper()
	worker := func(id int64, at core.Time, pid core.PlatformID, x, y float64) core.Event {
		w := &core.Worker{ID: id, Arrival: at, Loc: geo.Point{X: x, Y: y}, Radius: 0.3,
			Platform: pid, History: []float64{0.5, 1, 1.5}}
		return core.Event{Time: at, Kind: core.WorkerArrival, Worker: w}
	}
	request := func(id int64, at core.Time, pid core.PlatformID, x, y, v float64) core.Event {
		r := &core.Request{ID: id, Arrival: at, Loc: geo.Point{X: x, Y: y}, Value: v, Platform: pid}
		return core.Event{Time: at, Kind: core.RequestArrival, Request: r}
	}
	stream, err := core.NewStream([]core.Event{
		worker(1, 1, 1, 0.5, 0.5),
		worker(2, 2, 2, 0.52, 0.5),
		request(1, 3, 1, 0.5, 0.5, 5),
		request(2, 4, 1, 0.51, 0.5, 4),
		worker(3, 5, 2, 0.3, 0.3),
		request(3, 6, 1, 0.3, 0.31, 6),
		request(4, 7, 2, 0.9, 0.9, 2),
		worker(4, 8, 1, 0.9, 0.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestRecoveryEveryCutAndFlip is the serve-level crash-point drill. A
// replay log of a record-0 checkpoint, eight events and the final
// checkpoint is cut at every byte and has every byte flipped, and New
// runs on each. A cut recovers the k events whose frames are whole (a
// cut inside a checkpoint recovers the records before it), with the
// served and matched counters and the revenue bits of platform.Run on
// the first k events. A flip in the last frame is a torn tail; anywhere
// else it fails with a CorruptError naming the damaged frame's offset.
// Nothing recovers into other state.
func TestRecoveryEveryCutAndFlip(t *testing.T) {
	stream := drillStream(t)
	evs := stream.Events()
	factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatal(err)
	}
	type digest struct {
		served, matched int64
		revenue         uint64
	}
	want := make([]digest, len(evs)+1) // want[k]: platform.Run on the first k events
	for k := 1; k <= len(evs); k++ {
		prefix, err := core.NewStream(slices.Clone(evs[:k]))
		if err != nil {
			t.Fatal(err)
		}
		res, err := platform.Run(prefix, factory, platform.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = digest{want[k-1].served, int64(res.TotalServed()), math.Float64bits(res.TotalRevenue())}
		if evs[k-1].Kind == core.RequestArrival {
			want[k].served++
		}
	}
	if want[len(evs)].matched < 3 {
		t.Fatalf("the drill stream matches %d requests, want one inside a platform and two across", want[len(evs)].matched)
	}

	src := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 1, Replay: stream, WALDir: src}
	srv, ts := startServer(t, opts)
	if rep, err := RunLoad(context.Background(), LoadOptions{
		URL: ts.URL, Stream: stream, Conns: 1, Batch: 8, Client: ts.Client(),
	}); err != nil || rep.Failed != 0 {
		t.Fatalf("RunLoad: %v, %+v", err, rep)
	}
	if _, err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	orig := dirContents(t, src)[logFile]
	recs := logRecords(t, src)
	last := len(recs) - 1
	if last != len(evs)+1 || !wal.IsCheckpoint(recs[0]) || !wal.IsCheckpoint(recs[last]) {
		t.Fatalf("log of %d records, want a checkpoint, %d events and a checkpoint", len(recs), len(evs))
	}
	starts := make([]int, len(recs)+1) // starts[j]: offset of frame j; starts[len]: the file size
	for j, p := range recs {
		starts[j+1] = starts[j] + 8 + len(p)
	}

	dir := t.TempDir()
	opts.WALDir, opts.FsyncBatch = dir, 1<<20
	// recovers checks that New on data re-drives the first k events to
	// the offline digest and verifies the final checkpoint iff whole.
	recovers := func(what string, data []byte, k int, final bool) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, logFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatalf("%s: New: %v, want %d events recovered", what, err, k)
		}
		rec, c := srv.Recovery(), srv.Snapshot().Server
		res, err := srv.Close()
		if err != nil {
			t.Fatalf("%s: Close: %v", what, err)
		}
		got := digest{c.Served, c.Matched, math.Float64bits(res.TotalRevenue())}
		if rec.Events != int64(k) || got != want[k] || int64(res.TotalServed()) != got.matched ||
			(rec.SnapshotApplied == int64(k) && k > 0) != final {
			t.Fatalf("%s: recovered %+v to %+v, want %d events to %+v (final checkpoint verified: %v)",
				what, rec, got, k, want[k], final)
		}
	}
	for cut := 0; cut <= len(orig); cut++ {
		whole := 0
		for whole < len(recs) && starts[whole+1] <= cut {
			whole++
		}
		recovers(fmt.Sprintf("cut at %d", cut), orig[:cut], min(max(whole-1, 0), len(evs)), whole == len(recs))
	}
	for b := 0; b < len(orig); b++ {
		data := slices.Clone(orig)
		data[b] ^= 0xFF
		what := fmt.Sprintf("byte %d flipped", b)
		frame := 0
		for starts[frame+1] <= b {
			frame++
		}
		if frame == last {
			recovers(what, data, len(evs), false)
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, logFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(opts)
		var ce *wal.CorruptError
		if !errors.As(err, &ce) || ce.Offset != int64(starts[frame]) {
			if err == nil {
				srv.Close()
			}
			t.Fatalf("%s: New: %v, want a CorruptError at offset %d", what, err, starts[frame])
		}
	}
}
