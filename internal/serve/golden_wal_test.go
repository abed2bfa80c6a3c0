package serve

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/platform"
	"crossmatch/internal/wal"
)

// goldenLog is one checked-in log under testdata/wal and the recipe
// that wrote it: the server options, the traffic, how the writer
// stopped, and what recovering the log must give.
type goldenLog struct {
	name string
	opts func(t *testing.T) Options
	// post drives the writing server's traffic.
	post func(t *testing.T, srv *Server, ts *httptest.Server)
	// crash stops the writer as a kill does (no final checkpoint);
	// otherwise it closes cleanly. cut then drops that many bytes off
	// the end of the file, leaving a torn frame.
	crash bool
	cut   int64
	// The pinned recovery: event and tick records re-driven, and the
	// served, matched and revenue bits of the recovered counters.
	events, served, matched int64
	revenueBits             uint64
}

// goldenWorker is a live worker line; every worker in the golden logs
// carries a history.
func goldenWorker(id int64, x, y float64, pid int) string {
	return fmt.Sprintf(`{"id":%d,"x":%g,"y":%g,"platform":%d,"radius":0.3,"history":[%g,%g,%g]}`,
		id, x, y, pid, 1+float64(id%5), 2+float64(id%3), 4.5)
}

func goldenRequest(id int64, x, y float64, pid int, value float64) string {
	return fmt.Sprintf(`{"id":%d,"x":%g,"y":%g,"platform":%d,"value":%g}`, id, x, y, pid, value)
}

// postLines posts lines one at a time and fails on any status other
// than want.
func postLines(t *testing.T, ts *httptest.Server, path string, want string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if _, d := postJSON(t, ts.Client(), ts.URL+path, line); d.Status != want {
			t.Fatalf("%s %s: %+v, want status %s", path, line, d, want)
		}
	}
}

// postNDJSON posts lines as one NDJSON batch.
func postNDJSON(t *testing.T, ts *httptest.Server, path string, lines []string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	resp.Body.Close()
}

// replayAll pushes the whole recorded stream of a replay server.
func replayAll(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	stream := srv.opts.Replay
	if rep, err := RunLoad(context.Background(), LoadOptions{
		URL: ts.URL, Stream: stream, Conns: 2, Batch: 4, Retries: 5, Client: ts.Client(),
	}); err != nil || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("replay push: %+v, %v", rep, err)
	}
	waitApplied(t, srv, int64(stream.Len()))
}

// goldenLogs is the recipe of every checked-in log. No worker in them
// lacks a history.
var goldenLogs = []goldenLog{
	{
		name: "demcom-replay",
		opts: func(t *testing.T) Options {
			s := testStream(t, 12, 6, 10)
			return Options{Algorithm: platform.AlgDemCOM, Seed: 10, Replay: s, QueueCap: s.Len() + 1}
		},
		post:   replayAll,
		events: 36, served: 12, matched: 4, revenueBits: 0x4042d5482afe3741,
	},
	{
		name: "tota-replay-torn",
		opts: func(t *testing.T) Options {
			s := testStream(t, 12, 6, 5)
			return Options{Algorithm: platform.AlgTOTA, Seed: 5, Replay: s, QueueCap: s.Len() + 1}
		},
		post:  replayAll,
		crash: true, cut: 20,
		events: 35, served: 11, matched: 3, revenueBits: 0x404bb7c02d47a8c6,
	},
	{
		name: "ramcom-live",
		opts: func(*testing.T) Options {
			return Options{Algorithm: platform.AlgRamCOM, Seed: 11, MaxValue: 10}
		},
		post: func(t *testing.T, _ *Server, ts *httptest.Server) {
			for i := int64(1); i <= 6; i++ {
				postLines(t, ts, "/v1/workers", StatusOK, goldenWorker(i, 0.1*float64(i), 0.5, int(1+i%2)))
			}
			for i := int64(1); i <= 8; i++ {
				postLines(t, ts, "/v1/requests", StatusOK, goldenRequest(i, 0.08*float64(i), 0.52, int(1+i%2), float64(i)))
			}
		},
		events: 14, served: 8, matched: 6, revenueBits: math.Float64bits(21),
	},
	{
		name: "batchcom-live-ticks",
		opts: func(*testing.T) Options {
			return Options{Algorithm: platform.AlgBatchCOM, Seed: 12, Window: 20, ServiceTicks: 3}
		},
		post: func(t *testing.T, _ *Server, ts *httptest.Server) {
			postLines(t, ts, "/v1/workers", StatusOK,
				goldenWorker(1, 0.4, 0.4, 1), goldenWorker(2, 0.6, 0.6, 2), goldenWorker(3, 0.45, 0.4, 2))
			// Each request waits for its window's flush, which the ticker
			// logs as a tick record; the pauses let served workers return
			// after their three service ticks.
			for i := int64(1); i <= 4; i++ {
				postLines(t, ts, "/v1/requests", StatusOK, goldenRequest(i, 0.42, 0.41, int(1+i%2), 2+float64(i)))
				time.Sleep(30 * time.Millisecond)
			}
		},
		events: 11, served: 4, matched: 4, revenueBits: math.Float64bits(18),
	},
	{
		name: "tota-live-long",
		opts: func(*testing.T) Options {
			return Options{Algorithm: platform.AlgTOTA, Seed: 13}
		},
		post: func(t *testing.T, _ *Server, ts *httptest.Server) {
			var workers, requests []string
			for i := int64(1); i <= 150; i++ {
				x, y := float64(i%13)/13, float64(i%7)/7
				workers = append(workers, goldenWorker(i, x, y, int(1+i%2)))
				requests = append(requests, goldenRequest(i, y, x, int(1+i%3%2), float64(1+i%9)))
			}
			postNDJSON(t, ts, "/v1/workers", workers)
			postNDJSON(t, ts, "/v1/requests", requests)
		},
		events: 300, served: 150, matched: 125, revenueBits: math.Float64bits(623),
	},
	{
		name: "demcom-live-repeated-request",
		opts: func(*testing.T) Options {
			return Options{Algorithm: platform.AlgDemCOM, Seed: 14}
		},
		post: func(t *testing.T, _ *Server, ts *httptest.Server) {
			postLines(t, ts, "/v1/workers", StatusOK, goldenWorker(1, 0.5, 0.5, 1), goldenWorker(2, 0.55, 0.5, 1))
			postLines(t, ts, "/v1/requests", StatusOK, goldenRequest(5, 0.5, 0.5, 1, 3.5))
			// The repeat of served request 5 is logged, then refused.
			postLines(t, ts, "/v1/requests", StatusError, goldenRequest(5, 0.5, 0.5, 1, 3.5))
			postLines(t, ts, "/v1/requests", StatusOK, goldenRequest(6, 0.52, 0.5, 1, 2))
		},
		events: 5, served: 2, matched: 2, revenueBits: math.Float64bits(5.5),
	},
}

// goldenPath is where a recipe's log is checked in.
func goldenPath(name string) string { return filepath.Join("testdata", "wal", name+".seg") }

// writeGoldenLog runs a recipe into a fresh directory and copies the
// log it leaves to testdata/wal.
func writeGoldenLog(t *testing.T, g goldenLog) {
	dir := t.TempDir()
	opts := g.opts(t)
	opts.WALDir = dir
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	g.post(t, srv, ts)
	ts.Close()
	if g.crash {
		srv.crashForTest()
	} else if _, err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	b = b[:int64(len(b))-g.cut]
	if err := os.MkdirAll(filepath.Dir(goldenPath(g.name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(g.name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkpointPositions returns the Applied field of every checkpoint
// record in dir's log, in log order.
func checkpointPositions(t *testing.T, dir string) []int64 {
	t.Helper()
	var at []int64
	for _, p := range logRecords(t, dir) {
		if wal.IsCheckpoint(p) {
			c, err := wal.DecodeCheckpoint(p)
			if err != nil {
				t.Fatal(err)
			}
			at = append(at, c.Applied)
		}
	}
	return at
}

// TestRecoverGoldenLogs recovers every checked-in log with this binary:
// each checkpoint in it verifies on the way, and the recovered counters
// equal the pinned bits. The checkpoints sit where this binary's
// sequencer puts them: record 0, every checkpointEvery event and tick
// records, and the end of a cleanly closed log. A change to the record
// codecs, the checkpoint's JSON, the checkpoint cadence or the engine's
// decisions on these logs fails here; -update rewrites the logs from
// the recipes.
func TestRecoverGoldenLogs(t *testing.T) {
	for _, g := range goldenLogs {
		t.Run(g.name, func(t *testing.T) {
			if *update {
				writeGoldenLog(t, g)
			}
			b, err := os.ReadFile(goldenPath(g.name))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logFile), b, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := g.opts(t)
			opts.WALDir = dir
			srv, err := New(opts)
			if err != nil {
				t.Fatalf("recovering %s: %v", g.name, err)
			}
			rec := srv.Recovery()
			srv.crashForTest()
			served, matched, revBits := srv.digest()
			if rec.Events != g.events || served != g.served || matched != g.matched || revBits != g.revenueBits {
				t.Errorf("recovered %d records, served=%d matched=%d revenue=%#x; pinned %d, %d, %d, %#x",
					rec.Events, served, matched, revBits, g.events, g.served, g.matched, g.revenueBits)
			}

			want := []int64{0}
			for at := int64(checkpointEvery); at <= rec.Events; at += checkpointEvery {
				want = append(want, at)
			}
			if !g.crash && want[len(want)-1] != rec.Events {
				want = append(want, rec.Events)
			}
			if got := checkpointPositions(t, dir); !slices.Equal(got, want) {
				t.Errorf("checkpoints after records %v, this binary writes them after %v", got, want)
			}
			if rec.SnapshotApplied != want[len(want)-1] {
				t.Errorf("last verified checkpoint after %d records, want %d", rec.SnapshotApplied, want[len(want)-1])
			}
		})
	}
	logs, err := filepath.Glob(filepath.Join("testdata", "wal", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, name := range logs {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total >= 64<<10 {
		t.Errorf("the %d logs under testdata/wal hold %d bytes, want under 64 KB", len(logs), total)
	}
}

// TestRecoveryRefusesDecisionOrderRevenue: a checkpoint's revenue used
// to be summed decision by decision across platforms; it is now the
// Matchings' revenue summed in ascending platform ID, which can differ
// in the last bits. testdata/wal/tota-replay-decision-order.seg was
// written by the older binary, closed cleanly (TOTA, seed 23, a replay
// of testStream(14, 7, 23)); its final checkpoint pins the
// decision-order sum, one ULP off. This binary refuses the log at that
// record, and names it. No recipe rewrites the file.
func TestRecoveryRefusesDecisionOrderRevenue(t *testing.T) {
	b, err := os.ReadFile(goldenPath("tota-replay-decision-order"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s := testStream(t, 14, 7, 23)
	srv, err := New(Options{Algorithm: platform.AlgTOTA, Seed: 23, Replay: s, QueueCap: s.Len() + 1, WALDir: dir})
	if err == nil {
		srv.crashForTest()
	}
	want := fmt.Sprintf("record %d: checkpoint digest mismatch", s.Len()+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovering a log with a decision-order revenue checkpoint: %v, want an error containing %q", err, want)
	}
}
