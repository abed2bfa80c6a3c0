package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/wal"
)

// ledgerView is what /v1/metrics says of a run's decisions: the server
// section's decision counters, the engine section's funnel and the
// per-label latency counts.
type ledgerView struct {
	decided, matched int64
	revenueBits      uint64
	funnel           metrics.Counters
	latencies        map[string]int64
}

func viewOfSnapshot(snap MetricsSnapshot) ledgerView {
	v := ledgerView{decided: snap.Server.Served, matched: snap.Server.Matched,
		revenueBits: math.Float64bits(snap.Server.Revenue), funnel: snap.Engine.Counters,
		latencies: map[string]int64{}}
	for _, l := range snap.Engine.Latencies {
		v.latencies[l.Label] = l.Count
	}
	return v
}

// viewOfResult is the view a finished run's Result and collector give:
// the decision counters and latency counts off the Result, the funnel
// off the collector after checking it against the Result.
func viewOfResult(t *testing.T, res *platform.Result, mc *metrics.Collector) ledgerView {
	t.Helper()
	v := ledgerView{matched: int64(res.TotalServed()), revenueBits: math.Float64bits(res.TotalRevenue()),
		funnel: mc.Snapshot().Counters, latencies: map[string]int64{}}
	var inner, outer, rejected, coop int64
	for pid, p := range res.Platforms {
		v.decided += int64(p.Stats.Requests)
		inner += int64(p.Stats.ServedInner)
		outer += int64(p.Stats.ServedOuter)
		rejected += int64(p.Stats.Requests - p.Stats.Served)
		coop += int64(p.Stats.CoopAttempted)
		if n := p.Latency.Count(); n > 0 {
			v.latencies[fmt.Sprintf("platform-%d", pid)] = n
		}
	}
	if f := v.funnel; f.InnerMatches != inner || f.OuterMatches != outer || f.Rejections != rejected || f.CoopAttempts != coop {
		t.Fatalf("collector funnel %+v, Result inner %d outer %d rejected %d coop %d", f, inner, outer, rejected, coop)
	}
	return v
}

func sameView(t *testing.T, what string, got, want ledgerView) {
	t.Helper()
	if got.decided != want.decided || got.matched != want.matched || got.revenueBits != want.revenueBits {
		t.Errorf("%s: served=%d matched=%d revenue=%#x, the engine's tally %d, %d, %#x",
			what, got.decided, got.matched, got.revenueBits, want.decided, want.matched, want.revenueBits)
	}
	if got.funnel != want.funnel {
		t.Errorf("%s: engine counters\n%+v\nthe engine's\n%+v", what, got.funnel, want.funnel)
	}
	if fmt.Sprint(got.latencies) != fmt.Sprint(want.latencies) {
		t.Errorf("%s: latency counts %v, the engine's %v", what, got.latencies, want.latencies)
	}
}

// ledgerStream is the two-platform replay stream of
// TestRestartAfterCleanCloseVerifiesSnapshotDigest, with the DemCOM
// factory its offline runs use. Summed decision by decision across the
// platforms, its revenue differs in the last bits from the sum per
// platform.
func ledgerStream(t *testing.T) (*core.Stream, platform.MatcherFactory) {
	t.Helper()
	stream := testStream(t, 120, 90, 11)
	if n := len(stream.Platforms()); n != 2 {
		t.Fatalf("stream has %d platforms, want 2", n)
	}
	factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatal(err)
	}
	return stream, factory
}

func ledgerOptions(stream *core.Stream) Options {
	return Options{Algorithm: platform.AlgDemCOM, Seed: 11, Replay: stream, QueueCap: stream.Len() + 1}
}

// TestMetricsMidRunEqualEngineTally: part way through a two-platform
// replay, and with every event applied but the run not finished,
// /v1/metrics reports the decision counters and the funnel of an engine
// fed the same events, revenue bits included.
func TestMetricsMidRunEqualEngineTally(t *testing.T) {
	stream, factory := ledgerStream(t)
	for _, k := range []int{stream.Len() / 2, stream.Len()} {
		mc := metrics.New()
		eng, err := platform.NewEngine(stream.Platforms(), factory, platform.Config{Seed: 11, Metrics: mc})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetRecycleBase(stream.MaxWorkerID()); err != nil {
			t.Fatal(err)
		}
		for _, ev := range stream.Events()[:k] {
			if _, err := eng.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}

		srv, ts := startServer(t, ledgerOptions(stream))
		for _, ev := range stream.Events()[:k] {
			path := "/v1/requests"
			if ev.Kind == core.WorkerArrival {
				path = "/v1/workers"
			}
			if _, d := postJSON(t, ts.Client(), ts.URL+path, fmt.Sprintf(`{"id":%d}`, eventID(ev))); d.Status != StatusOK {
				t.Fatalf("event %d: %+v", eventID(ev), d)
			}
		}
		waitApplied(t, srv, int64(k))
		resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		sameView(t, fmt.Sprintf("/v1/metrics after %d of %d events", k, stream.Len()), viewOfSnapshot(snap), viewOfResult(t, res, mc))
	}
}

// TestCloseCheckpointAndSnapshotEqualResult: a clean Close writes a
// final checkpoint whose digest is the Result's (revenue bits equal to
// TotalRevenue's), and a Snapshot taken after Close reports the Result.
func TestCloseCheckpointAndSnapshotEqualResult(t *testing.T) {
	stream, _ := ledgerStream(t)
	opts := ledgerOptions(stream)
	opts.WALDir = t.TempDir()
	mc := metrics.New()
	opts.Metrics = mc
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	replayAll(t, srv, ts)
	ts.Close()
	res, err := srv.Close()
	if err != nil {
		t.Fatal(err)
	}

	recs := logRecords(t, opts.WALDir)
	c, err := wal.DecodeCheckpoint(recs[len(recs)-1])
	if err != nil {
		t.Fatalf("last record: %v", err)
	}
	want := viewOfResult(t, res, mc)
	if c.Served != want.decided || c.Matched != want.matched || c.RevenueBits != want.revenueBits {
		t.Errorf("final checkpoint served=%d matched=%d revenue=%#x, Result %d, %d, %#x",
			c.Served, c.Matched, c.RevenueBits, want.decided, want.matched, want.revenueBits)
	}
	sameView(t, "Snapshot after Close", viewOfSnapshot(srv.Snapshot()), want)
}

// TestWALMetricsAreTheLogsStats: on a durable server, the engine
// section's wal_appends, wal_bytes and wal_fsyncs are the log's own
// Stats, and wal_snapshots the checkpoint records in the log, part way
// through a replay (at /v1/metrics) and after Close (in Snapshot and in
// the server's collector).
func TestWALMetricsAreTheLogsStats(t *testing.T) {
	stream := testStream(t, 300, 100, 5)
	k := checkpointEvery + 10
	if stream.Len() <= k {
		t.Fatalf("stream of %d events, want more than %d", stream.Len(), k)
	}
	mc := metrics.New()
	opts := Options{Algorithm: platform.AlgDemCOM, Seed: 5, Replay: stream, QueueCap: stream.Len() + 1,
		WALDir: t.TempDir(), Metrics: mc}
	srv, ts := startServer(t, opts)
	check := func(what string, c metrics.Counters, checkpoints int) {
		t.Helper()
		st := srv.wal.Stats()
		got := [4]int64{c.WALAppends, c.WALBytes, c.WALFsyncs, c.WALSnapshots}
		want := [4]int64{st.Appends, st.Bytes, st.Fsyncs, int64(len(checkpointPositions(t, opts.WALDir)))}
		if got != want || want[3] != int64(checkpoints) {
			t.Errorf("%s: appends, bytes, fsyncs, snapshots %v; the log's %v (%d checkpoints expected)",
				what, got, want, checkpoints)
		}
	}

	postReplayPrefix(t, ts, stream.Events()[:k])
	waitApplied(t, srv, int64(k))
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("/v1/metrics mid-run", snap.Engine.Counters, 2) // record 0 and the periodic one

	postReplayPrefix(t, ts, stream.Events()[k:])
	waitApplied(t, srv, int64(stream.Len()))
	if _, err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Record 0, one every checkpointEvery records, and Close's unless the
	// last periodic one covers the log.
	final := 1 + stream.Len()/checkpointEvery
	if stream.Len()%checkpointEvery != 0 {
		final++
	}
	check("Snapshot after Close", srv.Snapshot().Engine.Counters, final)
	check("the server's collector after Close", mc.Snapshot().Counters, final)
}
