package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crossmatch/internal/platform"
)

// TestOverloadSheds is the PR's overload criterion: a load far beyond
// the server's capacity must shed with 429s while the served requests'
// client-side p99 stays bounded (the queue is short, so accepted work
// never waits behind an unbounded backlog).
func TestOverloadSheds(t *testing.T) {
	stream := testStream(t, 200, 200, 11)
	// ProcessDelay 2ms caps the engine at ~500 events/s; the bucket
	// admits 50 events/s past its burst of 16, a floor any client beats,
	// so the unpaced 400-event blast sheds however slow the machine is.
	_, ts := startServer(t, Options{
		Algorithm:    platform.AlgDemCOM,
		Seed:         11,
		QueueCap:     16,
		Rate:         50,
		Burst:        16,
		ProcessDelay: 2 * time.Millisecond,
	})

	rep, err := RunLoad(context.Background(), LoadOptions{
		URL:    ts.URL,
		Stream: stream,
		QPS:    0, // unpaced: as fast as the connections can push
		Conns:  8,
		Batch:  1,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Shed == 0 {
		t.Fatalf("overload run must shed: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("overload run must still serve some events: %+v", rep)
	}
	// With Retries=0 every event terminates exactly once: served,
	// dropped after its shed, or failed.
	if rep.OK+rep.Dropped+rep.Failed != int64(rep.Events) {
		t.Fatalf("accounting: ok %d + dropped %d + failed %d != events %d",
			rep.OK, rep.Dropped, rep.Failed, rep.Events)
	}
	if rep.Failed != 0 {
		t.Fatalf("overload must shed, not fail: %+v", rep)
	}
	// Bounded-latency claim: shed responses return fast and accepted
	// work waits behind at most QueueCap*ProcessDelay of backlog. The
	// bound here is deliberately loose for CI noise.
	if rep.P99Ms > 2000 {
		t.Fatalf("p99 %vms not bounded under overload", rep.P99Ms)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate must be in (0,1): %v", rep.ShedRate)
	}
}

// TestLoadRetriesRecoverSheds verifies the retry path: with retries and
// a rate limit that refills quickly, every shed event is eventually
// delivered.
func TestLoadRetriesRecoverSheds(t *testing.T) {
	stream := testStream(t, 40, 40, 3)
	_, ts := startServer(t, Options{
		Algorithm: platform.AlgTOTA,
		Seed:      3,
		Rate:      200,
		Burst:     4,
	})
	rep, err := RunLoad(context.Background(), LoadOptions{
		URL:     ts.URL,
		Stream:  stream,
		Conns:   4,
		Batch:   4,
		Retries: 50,
		Client:  ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Shed == 0 {
		t.Fatalf("burst 4 at 80 events should shed at least once: %+v", rep)
	}
	if rep.Dropped != 0 || rep.Failed != 0 {
		t.Fatalf("retries must recover every shed: %+v", rep)
	}
	if rep.OK != int64(rep.Events) {
		t.Fatalf("every event must land: ok %d of %d", rep.OK, rep.Events)
	}
}

// TestRunLoadLedger pins how the load generator books an answered line.
// A scripted ingest handler answers each event by its ID and attempt:
// event 1 is shed, then unavailable, then served by shard s1; event 2
// is shed past its budget; event 3 is a duplicate (applied before a
// restart); event 4 is unavailable on every attempt. The first post
// carries all four lines; every retry carries one.
func TestRunLoadLedger(t *testing.T) {
	shed := WireDecision{Status: StatusShed, RetryAfterMs: 1}
	unavail := WireDecision{Status: StatusUnavailable, RetryAfterMs: 1}
	script := map[int64][]WireDecision{
		1: {
			{Status: StatusShed, Shard: "s1", RetryAfterMs: 1},
			{Status: StatusUnavailable, Shard: "s1", RetryAfterMs: 1},
			{Status: StatusOK, Kind: "request", Shard: "s1", Served: true, Revenue: 7.5},
		},
		2: {shed},
		3: {{Status: StatusDuplicate, Shard: "s1"}},
		4: {unavail},
	}
	type ledger struct {
		Calls, Retried, OK, Shed, Unavailable, Dropped, Failed, Resumed, Requests, Matched int64
		Revenue                                                                            float64
	}
	type shardLedger struct {
		OK, Shed, Unavailable, Resumed, Matched, RTTs int64
		Revenue                                       float64
	}
	for _, tc := range []struct {
		name             string
		retries, unavail int
		want             ledger
		wantS1           shardLedger
	}{
		// Event 1 switches to the unavailable budget after its shed retry
		// answers unavailable; event 4 retries once and is dropped.
		{"both budgets", 1, 1,
			ledger{Calls: 5, Retried: 4, OK: 1, Shed: 3, Unavailable: 3, Dropped: 2, Resumed: 1,
				Requests: 1, Matched: 1, Revenue: 7.5},
			shardLedger{OK: 1, Shed: 1, Unavailable: 1, Resumed: 1, Matched: 1, RTTs: 2, Revenue: 7.5}},
		// A zero unavailable budget drops event 4 on its first answer and
		// event 1 on its second.
		{"no unavailable budget", 1, 0,
			ledger{Calls: 3, Retried: 2, Shed: 3, Unavailable: 2, Dropped: 3, Resumed: 1},
			shardLedger{Shed: 1, Unavailable: 1, Resumed: 1, RTTs: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			attempts := map[int64]int{}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				w.Header().Set("Content-Type", "application/x-ndjson")
				enc := json.NewEncoder(w)
				mu.Lock()
				defer mu.Unlock()
				for _, line := range splitLines(body) {
					var ev WireEvent
					if err := json.Unmarshal(line, &ev); err != nil {
						t.Errorf("bad line %q: %v", line, err)
						return
					}
					answers := script[ev.ID]
					d := answers[min(attempts[ev.ID], len(answers)-1)]
					attempts[ev.ID]++
					d.ID = ev.ID
					_ = enc.Encode(d)
				}
			}))
			defer ts.Close()

			rep, err := RunLoad(context.Background(), LoadOptions{
				URL:            ts.URL,
				Stream:         requestOnlyStream(t, 4),
				Conns:          1,
				Batch:          4,
				Retries:        tc.retries,
				UnavailRetries: tc.unavail,
				Client:         ts.Client(),
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			got := ledger{rep.Calls, rep.Retried, rep.OK, rep.Shed, rep.Unavailable, rep.Dropped,
				rep.Failed, rep.Resumed, rep.Requests, rep.Matched, rep.Revenue}
			if rep.Events != 4 || got != tc.want {
				t.Errorf("events %d, ledger %+v\nwant events 4, ledger %+v", rep.Events, got, tc.want)
			}
			if len(rep.Shards) != 1 || rep.Shards["s1"] == nil {
				t.Fatalf("shards %v, want only s1", rep.Shards)
			}
			s1 := rep.Shards["s1"]
			gotS1 := shardLedger{s1.OK, s1.Shed, s1.Unavailable, s1.Resumed, s1.Matched, s1.lat.Count(), s1.Revenue}
			if gotS1 != tc.wantS1 {
				t.Errorf("s1 %+v\nwant %+v", gotS1, tc.wantS1)
			}
		})
	}
}
