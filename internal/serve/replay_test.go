package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
)

// assertSameResult compares a served result against the offline one bit
// for bit: revenue, counters, and every assignment in insertion order.
func assertSameResult(t *testing.T, want, got *platform.Result) {
	t.Helper()
	if w, g := want.TotalRevenue(), got.TotalRevenue(); w != g {
		t.Fatalf("revenue: want %v, got %v", w, g)
	}
	if w, g := want.TotalServed(), got.TotalServed(); w != g {
		t.Fatalf("served: want %d, got %d", w, g)
	}
	if w, g := want.Recycled, got.Recycled; w != g {
		t.Fatalf("recycled: want %d, got %d", w, g)
	}
	if len(want.Platforms) != len(got.Platforms) {
		t.Fatalf("platforms: want %d, got %d", len(want.Platforms), len(got.Platforms))
	}
	for pid, wp := range want.Platforms {
		gp := got.Platforms[pid]
		if gp == nil {
			t.Fatalf("platform %d missing", pid)
		}
		if wp.Stats != gp.Stats {
			t.Fatalf("platform %d stats: want %+v, got %+v", pid, wp.Stats, gp.Stats)
		}
		wa, ga := wp.Matching.Assignments(), gp.Matching.Assignments()
		if len(wa) != len(ga) {
			t.Fatalf("platform %d assignments: want %d, got %d", pid, len(wa), len(ga))
		}
		for i := range wa {
			if wa[i].Request.ID != ga[i].Request.ID || wa[i].Worker.ID != ga[i].Worker.ID ||
				wa[i].Payment != ga[i].Payment || wa[i].Outer != ga[i].Outer {
				t.Fatalf("platform %d assignment %d: want r%d<-w%d pay %v outer %v, got r%d<-w%d pay %v outer %v",
					pid, i, wa[i].Request.ID, wa[i].Worker.ID, wa[i].Payment, wa[i].Outer,
					ga[i].Request.ID, ga[i].Worker.ID, ga[i].Payment, ga[i].Outer)
			}
		}
	}
}

// TestReplayMatchesOffline is the PR's headline determinism criterion:
// pushing a recorded stream over HTTP — batched, concurrent, retried —
// reproduces the offline SimulateContext/Run result bit for bit, and
// the client-side report agrees on matched count and revenue.
func TestReplayMatchesOffline(t *testing.T) {
	for _, tc := range []struct {
		name         string
		alg          string
		serviceTicks core.Time
	}{
		{"DemCOM", platform.AlgDemCOM, 0},
		{"RamCOM", platform.AlgRamCOM, 0},
		{"TOTA-recycled", platform.AlgTOTA, 3},
		{"DemCOM-recycled", platform.AlgDemCOM, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := testStream(t, 200, 150, 42)
			factory, err := platform.FactoryConfigured(tc.alg, platform.AlgConfig{MaxValue: stream.MaxValue()})
			if err != nil {
				t.Fatalf("FactoryConfigured: %v", err)
			}
			cfg := platform.Config{Seed: 42, ServiceTicks: tc.serviceTicks}
			want, err := platform.Run(stream, factory, cfg)
			if err != nil {
				t.Fatalf("offline Run: %v", err)
			}

			srv, ts := startServer(t, Options{
				Algorithm:    tc.alg,
				Seed:         42,
				Replay:       stream,
				ServiceTicks: tc.serviceTicks,
				QueueCap:     stream.Len() + 1,
			})
			rep, err := RunLoad(context.Background(), LoadOptions{
				URL:     ts.URL,
				Stream:  stream,
				Conns:   4,
				Batch:   8,
				Retries: 5,
				Client:  ts.Client(),
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if rep.Failed != 0 || rep.Dropped != 0 {
				t.Fatalf("replay must deliver everything: %+v", rep)
			}
			got, err := srv.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			assertSameResult(t, want, got)
			if rep.Matched != int64(want.TotalServed()) {
				t.Fatalf("client matched %d, offline served %d", rep.Matched, want.TotalServed())
			}
			// The client sums per-line revenues in completion order, so the
			// float total can differ from the offline sum in the last ulps;
			// the bit-exact comparison is assertSameResult on the server's
			// Result above.
			if diff := rep.Revenue - want.TotalRevenue(); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("client revenue %v, offline %v", rep.Revenue, want.TotalRevenue())
			}
		})
	}
}

// TestReplayShuffledDelivery hammers the re-sequencer: every recorded
// event is posted as its own concurrent request in a shuffled order,
// and the result must still be bit-identical — HTTP delivery order is
// irrelevant in replay mode.
func TestReplayShuffledDelivery(t *testing.T) {
	stream := testStream(t, 60, 40, 7)
	factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
	}
	want, err := platform.Run(stream, factory, platform.Config{Seed: 7})
	if err != nil {
		t.Fatalf("offline Run: %v", err)
	}

	srv, err := New(Options{Algorithm: platform.AlgDemCOM, Seed: 7, Replay: stream,
		QueueCap: stream.Len() + 1, Deadline: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	events := stream.Events()
	order := rand.New(rand.NewSource(1)).Perm(len(events))
	var wg sync.WaitGroup
	errs := make(chan string, len(events))
	for _, idx := range order {
		wg.Add(1)
		go func(ev core.Event) {
			defer wg.Done()
			line, _ := json.Marshal(WireEvent{ID: eventID(ev)})
			url := ts.URL + "/v1/requests"
			if ev.Kind == core.WorkerArrival {
				url = ts.URL + "/v1/workers"
			}
			resp, err := ts.Client().Post(url, "application/json", strings.NewReader(string(line)))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var d WireDecision
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				errs <- err.Error()
				return
			}
			if d.Status != StatusOK {
				errs <- "event " + d.Kind + " not ok: " + d.Status + " " + d.Error
			}
		}(events[idx])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("delivery failed: %s", e)
	}

	got, err := srv.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertSameResult(t, want, got)
}
