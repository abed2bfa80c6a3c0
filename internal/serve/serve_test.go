package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/trace"
	"crossmatch/internal/workload"
)

func testStream(t *testing.T, requests, workers int, seed int64) *core.Stream {
	t.Helper()
	cfg, err := workload.Synthetic(requests, workers, 1.0, "real")
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	stream, err := workload.Generate(cfg, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return stream
}

// startServer builds a Server plus an httptest listener and registers
// cleanup. Tests that need the final Result call srv.Close themselves;
// the cleanup tolerates the second call.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_, _ = srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body string) (*http.Response, WireDecision) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var d WireDecision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, d
}

func TestLiveSingleEvents(t *testing.T) {
	srv, ts := startServer(t, Options{Algorithm: platform.AlgDemCOM, Seed: 7})
	client := ts.Client()

	resp, d := postJSON(t, client, ts.URL+"/v1/workers",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK || d.Kind != "worker" {
		t.Fatalf("worker post: code %d, decision %+v", resp.StatusCode, d)
	}

	resp, d = postJSON(t, client, ts.URL+"/v1/requests",
		`{"id":1,"x":0.5,"y":0.5,"platform":1,"value":3.5}`)
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("request post: code %d, decision %+v", resp.StatusCode, d)
	}
	if !d.Served || d.WorkerID != 1 || d.Revenue != 3.5 {
		t.Fatalf("expected inner match to worker 1 with revenue 3.5, got %+v", d)
	}

	// No workers left: the decision comes back unserved with a reason.
	resp, d = postJSON(t, client, ts.URL+"/v1/requests",
		`{"id":2,"x":0.5,"y":0.5,"platform":1,"value":2}`)
	if resp.StatusCode != http.StatusOK || d.Served {
		t.Fatalf("second request should be unserved: code %d, %+v", resp.StatusCode, d)
	}
	if d.Reason == "" {
		t.Fatalf("unserved decision must carry a reason, got %+v", d)
	}

	res, err := srv.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.TotalServed() != 1 || res.TotalRevenue() != 3.5 {
		t.Fatalf("final result: served %d revenue %v", res.TotalServed(), res.TotalRevenue())
	}
}

// TestLiveExplicitIDRaisesAllocator: a client's explicit worker ID in
// the server-assigned range raises the allocator, so the next worker
// posted without an ID gets a fresh one and both keep waiting.
func TestLiveExplicitIDRaisesAllocator(t *testing.T) {
	_, ts := startServer(t, Options{Algorithm: platform.AlgTOTA, Seed: 7, Platforms: []core.PlatformID{1}})
	client := ts.Client()
	explicit := int64(liveIDBase + 1)
	_, d := postJSON(t, client, ts.URL+"/v1/workers",
		fmt.Sprintf(`{"id":%d,"x":0.2,"y":0.2,"platform":1,"radius":0.1}`, explicit))
	if d.Status != StatusOK || d.ID != explicit {
		t.Fatalf("explicit worker: %+v", d)
	}
	_, d = postJSON(t, client, ts.URL+"/v1/workers", `{"x":0.8,"y":0.8,"platform":1,"radius":0.1}`)
	if d.Status != StatusOK || d.ID != explicit+1 {
		t.Fatalf("unnamed worker: want ID %d, got %+v", explicit+1, d)
	}
	_, d = postJSON(t, client, ts.URL+"/v1/requests", `{"x":0.2,"y":0.2,"platform":1,"value":2}`)
	if !d.Served || d.WorkerID != explicit {
		t.Fatalf("request at the explicit worker: want served by %d, got %+v", explicit, d)
	}
}

// TestLiveRefusesServedWorkerID: a worker that has served comes back
// under a new ID or ID 0; its old ID is refused with that advice.
func TestLiveRefusesServedWorkerID(t *testing.T) {
	_, ts := startServer(t, Options{Algorithm: platform.AlgTOTA, Seed: 7, Platforms: []core.PlatformID{1}})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/workers", `{"id":7,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if _, d := postJSON(t, client, ts.URL+"/v1/requests", `{"id":1,"x":0.5,"y":0.5,"platform":1,"value":5}`); !d.Served {
		t.Fatalf("first request: %+v", d)
	}
	_, d := postJSON(t, client, ts.URL+"/v1/workers", `{"id":7,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if d.Status != StatusError || !strings.Contains(d.Error, "new ID") {
		t.Fatalf("served worker re-posted: %+v", d)
	}
	if _, d := postJSON(t, client, ts.URL+"/v1/requests", `{"id":2,"x":0.5,"y":0.5,"platform":1,"value":5}`); d.Served {
		t.Fatalf("worker 7 served twice: %+v", d)
	}
}

func TestBadInputRejected(t *testing.T) {
	_, ts := startServer(t, Options{Seed: 1})
	client := ts.Client()

	for name, tc := range map[string]struct {
		url, body string
	}{
		"malformed json": {"/v1/requests", `{"id":`},
		"unknown field":  {"/v1/requests", `{"id":1,"value":1,"bogus":2}`},
		"zero value":     {"/v1/requests", `{"id":1,"x":0.1,"y":0.1,"platform":1}`},
		"zero radius":    {"/v1/workers", `{"id":1,"x":0.1,"y":0.1,"platform":1}`},
		"empty body":     {"/v1/requests", ``},
	} {
		resp, d := postJSON(t, client, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest || d.Status != StatusError {
			t.Errorf("%s: want 400/error, got %d/%s", name, resp.StatusCode, d.Status)
		}
	}
}

// JSON cannot spell NaN or Inf, but a WireEvent built in-process (the
// load generator, a test) can hold them: the decode step must refuse a
// radius or value that is not a positive finite number, with the same
// message core.Validate gives.
func TestWireDecodeRejectsNonFinite(t *testing.T) {
	for name, tc := range map[string]struct {
		kind core.EventKind
		we   WireEvent
	}{
		"nan radius": {core.WorkerArrival, WireEvent{ID: 1, Platform: 1, Radius: math.NaN()}},
		"inf radius": {core.WorkerArrival, WireEvent{ID: 1, Platform: 1, Radius: math.Inf(1)}},
		"nan value":  {core.RequestArrival, WireEvent{ID: 1, Platform: 1, Value: math.NaN()}},
		"inf value":  {core.RequestArrival, WireEvent{ID: 1, Platform: 1, Value: math.Inf(1)}},
	} {
		if _, err := tc.we.toEvent(tc.kind); err == nil || !strings.Contains(err.Error(), "must be positive and finite") {
			t.Errorf("%s: toEvent error = %v, want a positive-and-finite refusal", name, err)
		}
	}
}

// A history value pricing.NewHistory would refuse must be refused at
// decode, before the event is logged and sequenced: the hub refusing it
// later leaves a poison record in the WAL and the engine clock moved.
func TestWireDecodeRejectsBadHistory(t *testing.T) {
	for name, bad := range map[string]float64{"negative": -1, "zero": 0, "nan": math.NaN(), "inf": math.Inf(1)} {
		we := WireEvent{ID: 1, Platform: 1, Radius: 1, History: []float64{2, bad}}
		if _, err := we.toEvent(core.WorkerArrival); err == nil || !strings.Contains(err.Error(), "history value 1 = ") {
			t.Errorf("%s: toEvent error = %v, want a history refusal", name, err)
		}
	}
	we := WireEvent{ID: 1, Platform: 1, Radius: 1, History: []float64{2, 0.5}}
	if _, err := we.toEvent(core.WorkerArrival); err != nil {
		t.Errorf("valid history refused: %v", err)
	}
}

// An event naming a platform the engine was not built with must be a
// 400 at admission, not a sequencer panic (and in WAL mode not a
// logged poison event): before the guard, one such POST crashed the
// whole server.
func TestUnknownPlatformRejected(t *testing.T) {
	srv, ts := startServer(t, Options{Algorithm: platform.AlgBatchCOM, Seed: 1, Window: 5})
	client := ts.Client()

	for name, tc := range map[string]struct {
		url, body string
	}{
		"request platform 0":  {"/v1/requests", `{"id":1,"x":0.5,"y":0.5,"platform":0,"value":5}`},
		"request platform 99": {"/v1/requests", `{"id":2,"x":0.5,"y":0.5,"platform":99,"value":5}`},
		"worker platform 0":   {"/v1/workers", `{"id":1,"x":0.5,"y":0.5,"platform":0,"radius":0.4}`},
	} {
		resp, d := postJSON(t, client, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest || d.Status != StatusError {
			t.Errorf("%s: want 400/error, got %d/%s", name, resp.StatusCode, d.Status)
		}
		if !strings.Contains(d.Error, "unknown platform") {
			t.Errorf("%s: error %q does not name the cause", name, d.Error)
		}
	}

	// The server must still be alive and matching on its real platforms.
	resp, d := postJSON(t, client, ts.URL+"/v1/workers",
		`{"id":3,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("valid worker after rejections: code %d, %+v", resp.StatusCode, d)
	}
	if got := srv.Snapshot().Server.BadEvents; got != 3 {
		t.Fatalf("bad-event counter %d, want 3", got)
	}
}

func TestRateLimitSheds(t *testing.T) {
	srv, ts := startServer(t, Options{Seed: 1, Rate: 0.001, Burst: 2})
	client := ts.Client()

	var okN, shedN int
	var lastShed WireDecision
	var lastResp *http.Response
	for i := 1; i <= 5; i++ {
		resp, d := postJSON(t, client, ts.URL+"/v1/workers",
			fmt.Sprintf(`{"id":%d,"x":0.5,"y":0.5,"platform":1,"radius":0.3}`, i))
		switch d.Status {
		case StatusOK:
			okN++
		case StatusShed:
			shedN++
			lastShed, lastResp = d, resp
		default:
			t.Fatalf("post %d: unexpected %+v", i, d)
		}
	}
	if okN != 2 || shedN != 3 {
		t.Fatalf("burst 2: want 2 ok / 3 shed, got %d / %d", okN, shedN)
	}
	if lastResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed single post must answer 429, got %d", lastResp.StatusCode)
	}
	if lastResp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 must carry Retry-After")
	}
	if lastShed.RetryAfterMs < 1 {
		t.Fatalf("shed line must carry retry_after_ms, got %+v", lastShed)
	}
	snap := srv.Snapshot()
	if snap.Server.ShedRateLimit != 3 || snap.Server.Accepted != 2 {
		t.Fatalf("counters: %+v", snap.Server)
	}
}

func TestQueueFullSheds(t *testing.T) {
	// ProcessDelay keeps the sequencer busy so the 1-slot queue fills.
	srv, ts := startServer(t, Options{Seed: 1, QueueCap: 1, ProcessDelay: 100 * time.Millisecond})
	client := ts.Client()

	type out struct {
		d    WireDecision
		code int
	}
	outs := make(chan out, 8)
	for i := 1; i <= 8; i++ {
		go func(i int) {
			resp, err := client.Post(ts.URL+"/v1/workers", "application/json",
				strings.NewReader(fmt.Sprintf(`{"id":%d,"x":0.5,"y":0.5,"platform":1,"radius":0.3}`, i)))
			if err != nil {
				outs <- out{}
				return
			}
			defer resp.Body.Close()
			var d WireDecision
			_ = json.NewDecoder(resp.Body).Decode(&d)
			outs <- out{d, resp.StatusCode}
		}(i)
	}
	var shed int
	for i := 0; i < 8; i++ {
		o := <-outs
		if o.d.Status == StatusShed {
			shed++
			if o.code != http.StatusTooManyRequests {
				t.Fatalf("queue-full shed must answer 429, got %d", o.code)
			}
		}
	}
	if shed == 0 {
		t.Fatalf("expected at least one queue-full shed")
	}
	if srv.Snapshot().Server.ShedQueueFull == 0 {
		t.Fatalf("shed_queue_full counter not incremented")
	}
}

func TestBatchNDJSON(t *testing.T) {
	_, ts := startServer(t, Options{Seed: 3})
	client := ts.Client()

	body := `{"id":1,"x":0.4,"y":0.4,"platform":1,"radius":0.5}
{"id":2,"x":0.6,"y":0.6,"platform":2,"radius":0.5}`
	resp, err := client.Post(ts.URL+"/v1/workers", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch must answer 200, got %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 response lines, got %d: %s", len(lines), raw)
	}
	for i, line := range lines {
		var d WireDecision
		if err := json.Unmarshal(line, &d); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if d.Status != StatusOK || d.ID != int64(i+1) {
			t.Fatalf("line %d: %+v", i, d)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Options{Seed: 3})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/workers", `{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4}`)
	postJSON(t, client, ts.URL+"/v1/requests", `{"id":1,"x":0.5,"y":0.5,"platform":1,"value":2}`)

	resp, err := client.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if snap.Server.Accepted != 2 || snap.Server.RequestsSeen != 1 || snap.Server.WorkersSeen != 1 {
		t.Fatalf("server counters: %+v", snap.Server)
	}
	if snap.Server.Matched != 1 || snap.Server.Revenue != 2 {
		t.Fatalf("decision counters: %+v", snap.Server)
	}
	if got := snap.Engine.Counters.InnerMatches + snap.Engine.Counters.OuterMatches; got != 1 {
		t.Fatalf("engine funnel must book the match, got counters %+v", snap.Engine.Counters)
	}
}

func TestTraceEndpoint(t *testing.T) {
	tr := trace.New(trace.Options{Capacity: 64})
	_, ts := startServer(t, Options{Seed: 3, Tracer: tr})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/requests", `{"id":1,"x":0.5,"y":0.5,"platform":1,"value":2}`)

	resp, err := client.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if len(bytes.TrimSpace(raw)) == 0 {
		t.Fatalf("trace endpoint returned no spans")
	}
	var span map[string]any
	if err := json.Unmarshal(bytes.SplitN(bytes.TrimSpace(raw), []byte("\n"), 2)[0], &span); err != nil {
		t.Fatalf("trace line is not JSON: %v", err)
	}

	// Without a tracer the endpoint 404s.
	_, ts2 := startServer(t, Options{Seed: 3})
	resp2, err := ts2.Client().Get(ts2.URL + "/v1/trace")
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("traceless server must 404, got %d", resp2.StatusCode)
	}
}

func TestReplayUnknownAndDuplicate(t *testing.T) {
	stream := testStream(t, 10, 10, 42)
	_, ts := startServer(t, Options{Seed: 42, Replay: stream})
	client := ts.Client()

	// An ID outside the recorded stream.
	resp, d := postJSON(t, client, ts.URL+"/v1/requests", `{"id":99999}`)
	if resp.StatusCode != http.StatusNotFound || d.Status != StatusUnknown {
		t.Fatalf("unknown replay id: code %d, %+v", resp.StatusCode, d)
	}

	// First delivery of a recorded event is fine; the second conflicts.
	ev := stream.Events()[0]
	line, _ := json.Marshal(WireEvent{ID: eventID(ev)})
	url := ts.URL + "/v1/requests"
	if ev.Kind == core.WorkerArrival {
		url = ts.URL + "/v1/workers"
	}
	resp, d = postJSON(t, client, url, string(line))
	if resp.StatusCode != http.StatusOK || d.Status != StatusOK {
		t.Fatalf("first delivery: code %d, %+v", resp.StatusCode, d)
	}
	resp, d = postJSON(t, client, url, string(line))
	if resp.StatusCode != http.StatusConflict || d.Status != StatusDuplicate {
		t.Fatalf("duplicate delivery: code %d, %+v", resp.StatusCode, d)
	}
}

func TestLiveNeedsMaxValueForThresholdAlgs(t *testing.T) {
	for _, alg := range []string{platform.AlgRamCOM, platform.AlgGreedyRT} {
		if _, err := New(Options{Algorithm: alg}); err == nil {
			t.Errorf("%s without MaxValue must fail construction", alg)
		}
	}
	srv, err := New(Options{Algorithm: platform.AlgRamCOM, MaxValue: 10})
	if err != nil {
		t.Fatalf("RamCOM with MaxValue: %v", err)
	}
	_, _ = srv.Close()
}

func TestHealthz(t *testing.T) {
	srv, ts := startServer(t, Options{Seed: 1})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server must 200, got %d", resp.StatusCode)
	}
	srv.BeginDrain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server must 503, got %d", resp.StatusCode)
	}
}

// TestNewRejectsBadRate: a negative, NaN or infinite admission rate is
// a configuration error, not a bucket that sheds every event with a
// negative hint (NaN) or a silent "unlimited" (negative). Zero is
// "unlimited".
func TestNewRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if srv, err := New(Options{Rate: rate}); err == nil || !strings.Contains(err.Error(), "rate") {
			if srv != nil {
				_, _ = srv.Close()
			}
			t.Errorf("Rate %v: New error %v, want one naming the rate", rate, err)
		}
	}
	srv, err := New(Options{Rate: 0})
	if err != nil {
		t.Fatalf("Rate 0 (unlimited): %v", err)
	}
	_, _ = srv.Close()
}
