package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/wal"
)

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
	lines := SplitLines(body2)
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

// TestResumeVTimeClock is the standalone restart-safe-clock fix: a
// server given ResumeVTime must stamp its first arrival at or after
// that tick, not restart the virtual clock from zero — with or without
// a WAL.
func TestResumeVTimeClock(t *testing.T) {
	const resume = 5000
	_, ts := startServer(t, Options{Algorithm: platform.AlgDemCOM, Seed: 3,
		ResumeVTime: resume})
	resp, d := postJSON(t, ts.Client(), ts.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if resp.StatusCode != 200 || d.Status != StatusOK {
		t.Fatalf("worker post: code %d, decision %+v", resp.StatusCode, d)
	}
	if d.VTime < resume {
		t.Fatalf("first stamped tick %d is before the resumed clock %d", d.VTime, resume)
	}
}

// TestCrashRecoveryReplayBitIdentical is the headline durability
// criterion: push part of a recorded stream into a WAL-backed server,
// crash it hard (no flush, no final snapshot), restart on the same
// directory, re-push the whole stream — recovered events dedupe as
// resumed, lost and unpushed ones apply — and the final Result must be
// bit-identical to an uninterrupted offline run. The FsyncBatch=64
// variant additionally loses the buffered un-fsynced tail in the
// crash, which the re-push must repair.
func TestCrashRecoveryReplayBitIdentical(t *testing.T) {
	for _, fsyncBatch := range []int{1, 64} {
		t.Run(fmt.Sprintf("fsync-batch-%d", fsyncBatch), func(t *testing.T) {
			stream := testStream(t, 200, 150, 42)
			factory, err := platform.FactoryFor(platform.AlgDemCOM, stream.MaxValue())
			if err != nil {
				t.Fatalf("FactoryFor: %v", err)
			}
			want, err := platform.Run(stream, factory, platform.Config{Seed: 42})
			if err != nil {
				t.Fatalf("offline Run: %v", err)
			}

			dir := t.TempDir()
			opts := Options{Algorithm: platform.AlgDemCOM, Seed: 42, Replay: stream,
				QueueCap: stream.Len() + 1, WALDir: dir, FsyncBatch: fsyncBatch,
				SnapshotEvery: 50}

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
			assertSameResult(t, want, got)
		})
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

// TestRecoveryRefusesShardedLog: a checkpoint stamped by a server on the
// in-process sharded engine (removed in PR 27) is refused by name, with
// the directory left as it was for the binary that can read it; one
// without the field, or with it zero, is an unsharded server's and
// recovers.
func TestRecoveryRefusesShardedLog(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		refuse      bool
	}{
		{"shards3", `,"shards":3,"shard_reach_bits":4607182418800017408}`, true},
		{"shards0", `,"shards":0}`, false},
		{"absent", `}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Algorithm: platform.AlgTOTA, Seed: 1, WALDir: dir}
			logOneWorker(t, opts)

			// Re-frame the final checkpoint with the field spliced into its
			// JSON: 4-byte length, 4-byte CRC32-C, payload.
			snap, err := wal.LatestSnapshot(dir)
			if err != nil || snap == nil {
				t.Fatalf("LatestSnapshot: %v, %v", snap, err)
			}
			path := filepath.Join(dir, wal.SnapshotName(snap.Applied))
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			payload := buf[8:]
			if bytes.Contains(payload, []byte("shard")) {
				t.Fatalf("an unsharded server stamped a shard field: %s", payload)
			}
			payload = append(bytes.TrimSuffix(payload, []byte("}")), tc.field...)
			framed := make([]byte, 8, 8+len(payload))
			binary.LittleEndian.PutUint32(framed[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(framed[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(path, append(framed, payload...), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)

			srv, err := New(opts)
			if !tc.refuse {
				if err != nil {
					t.Fatalf("restart must recover, got %v", err)
				}
				if rec := srv.Recovery(); rec.Events != 1 || rec.SnapshotApplied != 1 {
					t.Fatalf("recovery = %+v, want the one logged event verified", rec)
				}
				if _, err := srv.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "in-process sharded engine removed in PR 27") ||
				!strings.Contains(err.Error(), "recover it with the binary that wrote it, or start from an empty wal dir") {
				t.Fatalf("restart on a sharded server's log must say why it is refused, got %v", err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestRecoveryPricingRevFingerprint: a snapshot without pricing_rev is
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

			snap, err := wal.LatestSnapshot(dir)
			if err != nil || snap == nil {
				t.Fatalf("LatestSnapshot: %v, %v", snap, err)
			}
			if snap.PricingRev != pricing.SamplerRev {
				t.Fatalf("snapshot pricing_rev = %d, want %d", snap.PricingRev, pricing.SamplerRev)
			}
			snap.PricingRev = 0
			if err := wal.WriteSnapshot(dir, snap); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}

			srv2, err := New(opts)
			if !tc.refuse {
				if err != nil {
					t.Fatalf("%s restart on a revision-0 snapshot must recover, got %v", tc.alg, err)
				}
				if rec := srv2.Recovery(); rec.Events != 1 || rec.SnapshotApplied != 1 {
					t.Fatalf("recovery = %+v, want the one logged event verified", rec)
				}
				if _, err := srv2.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "sampler revision 0") {
				t.Fatalf("%s restart on a revision-0 snapshot must name the sampler revision, got %v", tc.alg, err)
			}
		})
	}
}

// TestRestartAfterCleanCloseVerifiesSnapshotDigest: a clean shutdown
// writes a final checkpoint; a restart re-drives the full log and must
// verify the checkpoint digest bit for bit, then produce the same
// Result as the uninterrupted offline run.
func TestRestartAfterCleanCloseVerifiesSnapshotDigest(t *testing.T) {
	stream := testStream(t, 120, 90, 11)
	factory, err := platform.FactoryFor(platform.AlgDemCOM, stream.MaxValue())
	if err != nil {
		t.Fatalf("FactoryFor: %v", err)
	}
	want, err := platform.Run(stream, factory, platform.Config{Seed: 11})
	if err != nil {
		t.Fatalf("offline Run: %v", err)
	}

	dir := t.TempDir()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 11, Replay: stream,
		QueueCap: stream.Len() + 1, WALDir: dir, SnapshotEvery: 25}
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
