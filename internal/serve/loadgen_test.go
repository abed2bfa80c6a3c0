package serve

import (
	"context"
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
	// ProcessDelay 2ms caps the engine at ~500 events/s; the bucket and
	// the 16-slot queue shed the rest of the unpaced 400-event blast.
	_, ts := startServer(t, Options{
		Algorithm:    platform.AlgDemCOM,
		Seed:         11,
		QueueCap:     16,
		Rate:         300,
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
