package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
)

// batchFactory builds the offline-side BatchCOM factory a serve test
// compares against.
func batchFactory(t *testing.T, maxValue float64, window, deadline core.Time) platform.MatcherFactory {
	t.Helper()
	factory, err := platform.FactoryConfigured(platform.AlgBatchCOM,
		platform.AlgConfig{MaxValue: maxValue, Window: window, Deadline: deadline})
	if err != nil {
		t.Fatalf("FactoryConfigured: %v", err)
	}
	return factory
}

// withLateWorker appends one worker arrival past every possible window
// due time, so a replayed BatchCOM stream flushes all of its windows
// from recorded events — no waiter is left hanging for the close-time
// finish.
func withLateWorker(t *testing.T, stream *core.Stream, window core.Time) *core.Stream {
	t.Helper()
	evs := append([]core.Event(nil), stream.Events()...)
	var maxT core.Time
	var maxW int64
	for _, ev := range evs {
		if ev.Time > maxT {
			maxT = ev.Time
		}
		if ev.Kind == core.WorkerArrival && ev.Worker.ID > maxW {
			maxW = ev.Worker.ID
		}
	}
	w := &core.Worker{ID: maxW + 1000, Arrival: maxT + window + 1,
		Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.5, Platform: stream.Platforms()[0]}
	evs = append(evs, core.Event{Time: w.Arrival, Kind: core.WorkerArrival, Worker: w})
	out, err := core.NewStream(evs)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return out
}

// TestBatchWindowDeadlineWhileBuffered is the satellite-1 regression: a
// request buffered in a window whose flush lies beyond the handler's
// deadline must answer 504 with the standard deadline reason — not a
// premature reason-less "ok", and not a silent drop. The event stays
// sequenced: the window still flushes at close and the decision counts
// in the final Result.
func TestBatchWindowDeadlineWhileBuffered(t *testing.T) {
	srv, ts := startServer(t, Options{
		Algorithm: platform.AlgBatchCOM,
		Seed:      7,
		Window:    600_000, // ten minutes of virtual time: never flushes in-test
		Deadline:  60 * time.Millisecond,
	})
	client := ts.Client()

	resp, d := postJSON(t, client, ts.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("worker post: code %d, decision %+v", resp.StatusCode, d)
	}

	resp, d = postJSON(t, client, ts.URL+"/v1/requests",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3.5}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("buffered request: want 504, got %d (%+v)", resp.StatusCode, d)
	}
	if d.Status != StatusDeadline {
		t.Fatalf("buffered request status: want %q, got %q", StatusDeadline, d.Status)
	}
	if want := "decision did not return within the deadline; the event is still sequenced"; d.Error != want {
		t.Fatalf("deadline reason: want %q, got %q", want, d.Error)
	}
	if got := srv.Snapshot().Server.DeadlineMiss; got < 1 {
		t.Fatalf("deadline_miss counter: want >=1, got %d", got)
	}

	// "Still sequenced" is not just a message: the buffered window
	// flushes at close and the request is served in the final Result.
	res, err := srv.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.TotalServed() != 1 {
		t.Fatalf("buffered request lost: served %d, want 1", res.TotalServed())
	}
}

// TestBatchWindowLiveTickerFlush: in live mode nothing but wall-clock
// time flushes an idle window, so the sequencer's ticker must drive the
// flush and answer the waiting handler with the real decision.
func TestBatchWindowLiveTickerFlush(t *testing.T) {
	srv, ts := startServer(t, Options{
		Algorithm: platform.AlgBatchCOM,
		Seed:      3,
		Window:    40, // 40ms of virtual time; ticker period 20ms
	})
	client := ts.Client()

	if resp, d := postJSON(t, client, ts.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`); resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("worker post: code %d, decision %+v", resp.StatusCode, d)
	}
	resp, d := postJSON(t, client, ts.URL+"/v1/requests",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3.5}`)
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("request post: code %d, decision %+v", resp.StatusCode, d)
	}
	if !d.Served || d.WorkerID != 1 {
		t.Fatalf("ticker flush decision: %+v", d)
	}
	snap := srv.Snapshot().Server
	if snap.Served != 1 || snap.Matched != 1 || snap.Revenue != 3.5 {
		t.Fatalf("flush counters: %+v", snap)
	}
	res, err := srv.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.TotalServed() != 1 {
		t.Fatalf("served: want 1, got %d", res.TotalServed())
	}
}

// TestBatchReplayMatchesOffline extends the replay-parity guarantee to
// the windowed matcher: a recorded stream pushed over HTTP in a
// shuffled concurrent order reproduces the offline Run bit for bit,
// window flushes included, and every deferred waiter is answered with
// its flush-time decision.
func TestBatchReplayMatchesOffline(t *testing.T) {
	const window core.Time = 6
	for _, ticks := range []core.Time{0, 3} {
		t.Run(fmt.Sprintf("serviceTicks=%d", ticks), func(t *testing.T) {
			stream := withLateWorker(t, testStream(t, 120, 80, 42), window)
			cfg := platform.Config{Seed: 42, ServiceTicks: ticks}
			want, err := platform.Run(stream, batchFactory(t, stream.MaxValue(), window, 0), cfg)
			if err != nil {
				t.Fatalf("offline Run: %v", err)
			}

			srv, err := New(Options{Algorithm: platform.AlgBatchCOM, Seed: 42, Replay: stream,
				ServiceTicks: ticks, Window: window,
				QueueCap: stream.Len() + 1, Deadline: time.Minute})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			events := stream.Events()
			order := rand.New(rand.NewSource(9)).Perm(len(events))
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
		})
	}
}

// postReplayPrefix pushes a slice of recorded events concurrently,
// tolerating deferred 504s (the handler's deadline fired while the
// event sat buffered in a window — it is still sequenced).
func postReplayPrefix(t *testing.T, ts *httptest.Server, events []core.Event) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, len(events))
	for _, ev := range events {
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
			if d.Status != StatusOK && d.Status != StatusDeadline {
				errs <- "event " + d.Kind + " rejected: " + d.Status + " " + d.Error
			}
		}(ev)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("delivery failed: %s", e)
	}
}

// waitApplied polls until every admitted event has been fed through the
// engine (applied == accepted), so a crash injected afterwards cannot
// race admitted-but-unprocessed events. QueueLen alone is NOT that
// barrier: in replay mode the cursor-unblocking event is often dequeued
// last, emptying the queue while the whole pending chain — dozens of
// events — still waits to be processed behind it.
func waitApplied(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Snapshot().Server
		if st.Applied >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d admitted events", st.Applied, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchWindowCrashRecovery: a crash with requests still buffered in
// an open window, under a non-zero recycle base (replay mode +
// ServiceTicks), must recover by RE-BUFFERING the undecided requests —
// the WAL re-drive rebuilds the open window, the periodic checkpoint
// digest in the prefix (taken while buffered requests were uncounted)
// verifies, and finishing the stream on the recovered server reproduces
// the uninterrupted offline run bit for bit.
func TestBatchWindowCrashRecovery(t *testing.T) {
	const window core.Time = 50
	stream := testStream(t, 160, 110, 21)
	cfg := platform.Config{Seed: 21, ServiceTicks: 3}
	want, err := platform.Run(stream, batchFactory(t, stream.MaxValue(), window, 0), cfg)
	if err != nil {
		t.Fatalf("offline Run: %v", err)
	}

	events := stream.Events()
	// Cut right after a request arrival: BatchCOM defers every request,
	// and no later event is processed before the crash, so that request
	// is guaranteed to be sitting undecided in an open window.
	cut := len(events) / 2
	for cut > 1 && events[cut-1].Kind != core.RequestArrival {
		cut--
	}
	if events[cut-1].Kind != core.RequestArrival {
		t.Fatal("stream prefix holds no request arrival")
	}

	walDir := t.TempDir()
	opts := Options{Algorithm: platform.AlgBatchCOM, Seed: 21, Replay: stream,
		ServiceTicks: 3, Window: window, QueueCap: stream.Len() + 1,
		Deadline: 100 * time.Millisecond, WALDir: walDir}

	srvA, err := New(opts)
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	postReplayPrefix(t, tsA, events[:cut])
	waitApplied(t, srvA, int64(cut))
	tsA.Close()
	srvA.crashForTest()

	srvB, err := New(opts)
	if err != nil {
		t.Fatalf("New B (recovery): %v", err)
	}
	rec := srvB.Recovery()
	if !rec.Recovered || rec.Events < int64(cut) || rec.SnapshotApplied < checkpointEvery {
		t.Fatalf("recovery info: %+v (want >= %d events and a periodic checkpoint)", rec, cut)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	postReplayPrefix(t, tsB, events[cut:])
	// A 504'd handler returns before its event is applied, so the posting
	// barrier alone does not mean the engine is caught up — and Close's
	// drain answers still-queued events without applying them.
	waitApplied(t, srvB, int64(len(events)))

	got, err := srvB.Close()
	if err != nil {
		t.Fatalf("Close B: %v", err)
	}
	assertSameResult(t, want, got)
}

// TestLiveDuplicateRequestInWindow: request 5 posted again on its
// platform while the first is buffered in the open window is refused,
// request 5 posted on the other platform is taken, and each of the two
// taken posts is answered with its own platform's decision at the
// flush. Before, the engine took the repeat into the window and the
// server kept one waiter per ID: the repeat or the other platform's
// post replaced the first post's waiter and took its answer, and the
// waiter left without one timed out.
func TestLiveDuplicateRequestInWindow(t *testing.T) {
	srv, ts := startServer(t, Options{Algorithm: platform.AlgBatchCOM, Seed: 3, Window: 1000,
		Platforms: []core.PlatformID{1, 2}, DisableCoop: true})
	client := ts.Client()
	for _, w := range []string{
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`,
		`{"id":2,"x":0.5,"y":0.5,"platform":2,"radius":0.4}`,
	} {
		postJSON(t, client, ts.URL+"/v1/workers", w)
	}
	request := func(platform string) string {
		return `{"id":5,"x":0.5,"y":0.5,"platform":` + platform + `,"value":3}`
	}
	post := func(body string) <-chan WireDecision {
		out := make(chan WireDecision, 1)
		go func() {
			var d WireDecision
			if resp, err := client.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(body)); err == nil {
				_ = json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
			}
			out <- d
		}()
		return out
	}
	first := post(request("1"))
	waitApplied(t, srv, 3)
	if _, d := postJSON(t, client, ts.URL+"/v1/requests", request("1")); d.Status != StatusError || !strings.Contains(d.Error, "request 5") {
		t.Fatalf("second post of request 5 on platform 1: %+v, want an error naming it", d)
	}
	other := post(request("2"))
	for _, c := range []struct {
		name   string
		answer <-chan WireDecision
		worker int64
	}{{"platform 1", first, 1}, {"platform 2", other, 2}} {
		select {
		case d := <-c.answer:
			if d.Status != StatusOK || !d.Served || d.WorkerID != c.worker {
				t.Fatalf("request 5 on %s: %+v, want its flush decision by worker %d", c.name, d, c.worker)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request 5 on %s not answered", c.name)
		}
	}
	if snap := srv.Snapshot().Server; snap.Served != 2 || snap.Matched != 2 {
		t.Fatalf("counters: %+v", snap)
	}
	res, err := srv.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.TotalServed() != 2 {
		t.Fatalf("served: want 2, got %d", res.TotalServed())
	}
}

// TestLiveHistorylessWorkersStayInner: history is optional on the wire,
// and a worker posted without one is no outer candidate. Before, the
// request below was answered outer by platform 2's worker 2 at payment
// 5e-324, although platform 1's own worker 1 covers it.
func TestLiveHistorylessWorkersStayInner(t *testing.T) {
	srv, ts := startServer(t, Options{Algorithm: platform.AlgBatchCOM, Seed: 1, Window: 5,
		Platforms: []core.PlatformID{1, 2}})
	client := ts.Client()
	for _, w := range []string{
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`,
		`{"id":2,"x":0.5,"y":0.5,"platform":2,"radius":0.4}`,
	} {
		if _, d := postJSON(t, client, ts.URL+"/v1/workers", w); d.Status != StatusOK {
			t.Fatalf("worker post: %+v", d)
		}
	}
	_, d := postJSON(t, client, ts.URL+"/v1/requests", `{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3}`)
	if d.Status != StatusOK || !d.Served || d.Outer || d.WorkerID != 1 || d.Revenue != 3 {
		t.Fatalf("request 1: %+v, want it served inner by worker 1 for revenue 3", d)
	}
	if _, err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
