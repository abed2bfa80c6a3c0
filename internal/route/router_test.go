package route

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crossmatch/internal/geo"
	"crossmatch/internal/serve"
)

// fakeShard is a scriptable stand-in for a comserve shard: health is a
// switch, ingest answers a configurable per-line status, and the first
// N posts can be slowed down.
type fakeShard struct {
	name string
	srv  *httptest.Server

	healthy   atomic.Bool  // /healthz: 200 ok vs 503 draining
	lineState atomic.Value // string: status for every ingest line
	slowPosts atomic.Int32 // this many leading posts sleep slowFor
	slowFor   time.Duration
	garble    atomic.Int32 // when k > 0, reply line k (1-based) of each post is not JSON
	posts     atomic.Int64
	lines     atomic.Int64
	inPosts   atomic.Int32 // ingest posts currently being served
}

func newFakeShard(t testing.TB, name string) *fakeShard {
	t.Helper()
	fs := &fakeShard{name: name}
	fs.healthy.Store(true)
	fs.lineState.Store(serve.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if fs.healthy.Load() {
			w.WriteHeader(http.StatusOK)
			_ = json.NewEncoder(w).Encode(serve.HealthStatus{Status: "ok"})
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(serve.HealthStatus{Status: "draining"})
	})
	ingest := func(w http.ResponseWriter, req *http.Request) {
		fs.inPosts.Add(1)
		defer fs.inPosts.Add(-1)
		if fs.slowPosts.Add(-1) >= 0 {
			time.Sleep(fs.slowFor)
		} else {
			fs.slowPosts.Store(-1)
		}
		fs.posts.Add(1)
		var body bytes.Buffer
		_, _ = body.ReadFrom(req.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		status := fs.lineState.Load().(string)
		garble, k := int(fs.garble.Load()), 0
		for _, line := range bytes.Split(body.Bytes(), []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			fs.lines.Add(1)
			k++
			if k == garble {
				_, _ = w.Write([]byte(`{"status":"ok",` + "\n"))
				continue
			}
			out := serve.WireDecision{Status: status}
			if status == serve.StatusShed {
				out.RetryAfterMs = 5
			}
			_ = enc.Encode(&out)
		}
	}
	mux.HandleFunc("POST /v1/requests", ingest)
	mux.HandleFunc("POST /v1/workers", ingest)
	fs.srv = httptest.NewServer(mux)
	t.Cleanup(fs.srv.Close)
	return fs
}

// newTestRouter builds a router over the given shards with fast probes
// and waits for the initial probe round to settle.
func newTestRouter(t testing.TB, opts Options, shards ...*fakeShard) *Router {
	t.Helper()
	for _, fs := range shards {
		opts.Shards = append(opts.Shards, ShardConfig{Name: fs.name, URL: fs.srv.URL})
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 10 * time.Millisecond
	}
	r, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(r.Close)
	for _, fs := range shards {
		if fs.healthy.Load() {
			waitReady(t, r, fs.name, true)
		}
	}
	return r
}

func waitReady(t testing.TB, r *Router, name string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := r.Shard(name); ok && st.Ready == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := r.Shard(name)
	t.Fatalf("shard %s never reached ready=%v (status %+v)", name, want, st)
}

// postLines POSTs NDJSON lines through the router and decodes the
// per-line decisions.
func postLines(t *testing.T, h http.Handler, path string, lines ...string) []serve.WireDecision {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(strings.Join(lines, "\n")+"\n"))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	var outs []serve.WireDecision
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var d serve.WireDecision
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		outs = append(outs, d)
	}
	return outs
}

func lineAt(p geo.Point) string {
	b, _ := json.Marshal(map[string]any{"x": p.X, "y": p.Y, "platform": 1, "value": 10})
	return string(b)
}

// TestRoutingMatchesOwnership: every line is answered by its cell's
// rendezvous owner, and the response preserves input order.
func TestRoutingMatchesOwnership(t *testing.T) {
	s1, s2, s3 := newFakeShard(t, "s1"), newFakeShard(t, "s2"), newFakeShard(t, "s3")
	r := newTestRouter(t, Options{}, s1, s2, s3)
	names := []string{"s1", "s2", "s3"}

	var lines []string
	var want []string
	for _, name := range []string{"s2", "s1", "s3", "s1", "s2"} {
		lines = append(lines, lineAt(pointOwnedBy(t, name, names, 0)))
		want = append(want, name)
	}
	outs := postLines(t, r.Handler(), "/v1/requests", lines...)
	if len(outs) != len(lines) {
		t.Fatalf("%d response lines, want %d", len(outs), len(lines))
	}
	for i, out := range outs {
		if out.Status != serve.StatusOK || out.Shard != want[i] {
			t.Fatalf("line %d: status=%s shard=%s, want ok on %s", i, out.Status, out.Shard, want[i])
		}
	}
}

// TestDeadShardRoutedAround: a shard that is down (connection refused)
// is not ready and must not stall the batch — its lines answer
// unavailable at once with a retry hint and without a post, and the
// surviving shards' lines are served.
func TestDeadShardRoutedAround(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	dead := newFakeShard(t, "s3")
	dead.srv.Close()          // connection refused from the start
	dead.healthy.Store(false) // skip the helper's ready wait; the server is gone anyway
	r := newTestRouter(t, Options{}, s1, s2, dead)
	names := []string{"s1", "s2", "s3"}

	waitReady(t, r, "s3", false)
	lines := []string{
		lineAt(pointOwnedBy(t, "s1", names, 0)),
		lineAt(pointOwnedBy(t, "s3", names, 0)),
		lineAt(pointOwnedBy(t, "s2", names, 0)),
	}
	t0 := time.Now()
	outs := postLines(t, r.Handler(), "/v1/requests", lines...)
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("batch with a dead shard took %v; surviving cells must not stall", el)
	}
	if outs[0].Status != serve.StatusOK || outs[0].Shard != "s1" {
		t.Fatalf("surviving line 0: %+v", outs[0])
	}
	if outs[2].Status != serve.StatusOK || outs[2].Shard != "s2" {
		t.Fatalf("surviving line 2: %+v", outs[2])
	}
	if outs[1].Status != serve.StatusUnavailable || outs[1].RetryAfterMs <= 0 {
		t.Fatalf("dead-shard line: %+v, want unavailable with a retry hint", outs[1])
	}
	if st, _ := r.Shard("s3"); st.Lines != 0 {
		t.Fatalf("the not-ready shard was posted %d lines", st.Lines)
	}
}

// TestReadmissionAfterRecovery: a shard that reports recovering takes
// no traffic; the moment readiness flips back the prober re-admits it.
func TestReadmissionAfterRecovery(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	s2.healthy.Store(false) // starts live-but-not-ready
	r := newTestRouter(t, Options{}, s1, s2)
	names := []string{"s1", "s2"}
	waitReady(t, r, "s2", false)

	line := lineAt(pointOwnedBy(t, "s2", names, 0))
	outs := postLines(t, r.Handler(), "/v1/requests", line)
	if outs[0].Status != serve.StatusUnavailable {
		t.Fatalf("recovering shard got traffic: %+v", outs[0])
	}
	if n := s2.lines.Load(); n != 0 {
		t.Fatalf("recovering shard served %d lines", n)
	}

	s2.healthy.Store(true)
	waitReady(t, r, "s2", true)
	outs = postLines(t, r.Handler(), "/v1/requests", line)
	if outs[0].Status != serve.StatusOK || outs[0].Shard != "s2" {
		t.Fatalf("re-admitted shard did not serve: %+v", outs[0])
	}
}

// TestReadmissionAfterRestart: a shard that stops listening is not
// ready, and once it listens again on the same address the prober
// re-admits it within a few probe intervals: nothing holds a restarted
// shard out of the fleet.
func TestReadmissionAfterRestart(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	r := newTestRouter(t, Options{}, s1)
	addr, handler := s1.srv.Listener.Addr().String(), s1.srv.Config.Handler
	s1.srv.Close()
	waitReady(t, r, "s1", false)
	// Stay dark for ten probe intervals, a down shard rather than a blip.
	time.Sleep(100 * time.Millisecond)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listening on %s again: %v", addr, err)
	}
	back := &httptest.Server{Listener: ln, Config: &http.Server{Handler: handler}}
	back.Start()
	t.Cleanup(back.Close)
	t0 := time.Now()
	waitReady(t, r, "s1", true)
	if el := time.Since(t0); el > 400*time.Millisecond {
		t.Fatalf("restarted shard took %v to be ready again with 10ms probes", el)
	}
}

// TestBackpressurePassthrough: shard 429 lines reach the client with
// their retry hint, and the router does not send them again.
func TestBackpressurePassthrough(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	s1.lineState.Store(serve.StatusShed)
	r := newTestRouter(t, Options{}, s1)

	outs := postLines(t, r.Handler(), "/v1/requests", lineAt(geo.Point{X: 0.5, Y: 0.5}))
	if outs[0].Status != serve.StatusShed || outs[0].RetryAfterMs != 5 || outs[0].Shard != "s1" {
		t.Fatalf("shed line: %+v, want shed with hint 5 from s1", outs[0])
	}
	if posts := s1.posts.Load(); posts != 1 {
		t.Fatalf("router re-sent a shed line: %d posts", posts)
	}
}

// TestSingleObjectStatusMapping: a non-batch post mirrors comserve's
// HTTP status mapping and Retry-After header.
func TestSingleObjectStatusMapping(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	s1.healthy.Store(false)
	r := newTestRouter(t, Options{}, s1)
	waitReady(t, r, "s1", false)

	req := httptest.NewRequest(http.MethodPost, "/v1/requests",
		strings.NewReader(lineAt(geo.Point{X: 0.5, Y: 0.5})))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("single-object refusal: HTTP %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("refusal without Retry-After header")
	}
}

// TestFleetHealthAndMetrics: /healthz reflects ready shards, the
// snapshot carries per-shard state.
func TestFleetHealthAndMetrics(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	s2 := newFakeShard(t, "s2")
	s2.healthy.Store(false)
	r := newTestRouter(t, Options{}, s1, s2)
	waitReady(t, r, "s2", false)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet health with one ready shard: %d", rec.Code)
	}
	var fh fleetHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &fh); err != nil {
		t.Fatalf("health body: %v", err)
	}
	if fh.ReadyShards != 1 || fh.TotalShards != 2 {
		t.Fatalf("fleet health: %+v", fh)
	}

	snap := r.Snapshot()
	if len(snap.Shards) != 2 || snap.ReadyShards != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}

	// All shards dark → 503.
	s1.healthy.Store(false)
	waitReady(t, r, "s1", false)
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fleet health with no ready shards: %d", rec.Code)
	}
}

// TestBadLineAnsweredLocally: an unparseable line never reaches a
// shard and does not poison the rest of the batch.
func TestBadLineAnsweredLocally(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	r := newTestRouter(t, Options{}, s1)
	outs := postLines(t, r.Handler(), "/v1/requests",
		"{not json", lineAt(geo.Point{X: 0.5, Y: 0.5}))
	if outs[0].Status != serve.StatusError {
		t.Fatalf("bad line: %+v", outs[0])
	}
	if outs[1].Status != serve.StatusOK {
		t.Fatalf("good line after bad: %+v", outs[1])
	}
}

// TestMaxInflightBounds: the router answers 503 immediately instead of
// queueing when the inflight bound is hit.
func TestMaxInflightBounds(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	s1.slowFor = 300 * time.Millisecond
	r := newTestRouter(t, Options{}, s1)
	r.inflight = make(chan struct{}, 1) // an inflight bound of 1
	s1.slowPosts.Store(1)

	line := lineAt(geo.Point{X: 0.5, Y: 0.5})
	first := make(chan string, 1)
	go func() {
		// No t.Fatalf off the test goroutine: ship the raw body back.
		req := httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(line+"\n"))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		first <- rec.Body.String()
	}()
	// Wait until the slow call is actually inside the shard handler —
	// it holds the router's only inflight slot for slowFor.
	deadline := time.Now().Add(2 * time.Second)
	for s1.inPosts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow call never reached the shard")
		}
		time.Sleep(time.Millisecond)
	}
	outs := postLines(t, r.Handler(), "/v1/requests", line)
	if outs[0].Status != serve.StatusUnavailable || outs[0].RetryAfterMs <= 0 {
		t.Fatalf("over-inflight call: %+v, want unavailable with hint", outs[0])
	}
	var slow serve.WireDecision
	if err := json.Unmarshal([]byte(strings.TrimSpace(<-first)), &slow); err != nil || slow.Status != serve.StatusOK {
		t.Fatalf("slow call: %+v (%v)", slow, err)
	}
}

// TestRefusalRetryHintPrecedence is the retry-hint regression: a cell
// whose owner is not ready is refused locally by the router, and
// that refusal must carry BOTH backoff hints with the precedence
// documented in serve/admission.go — the body retry_after_ms is
// authoritative and the Retry-After header is the same hint rounded up
// to whole seconds, so a header-driven client never backs off shorter
// than a body-driven one.
func TestRefusalRetryHintPrecedence(t *testing.T) {
	dead := newFakeShard(t, "s1")
	dead.srv.Close()
	dead.healthy.Store(false)
	r := newTestRouter(t, Options{}, dead)
	waitReady(t, r, "s1", false)

	req := httptest.NewRequest(http.MethodPost, "/v1/requests",
		strings.NewReader(lineAt(geo.Point{X: 0.5, Y: 0.5})))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("refusal: HTTP %d, want 503", rec.Code)
	}

	var d serve.WireDecision
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("refusal body: %v: %s", err, rec.Body.String())
	}
	if d.Status != serve.StatusUnavailable {
		t.Fatalf("refusal status: %+v", d)
	}
	if d.RetryAfterMs < 1 || d.RetryAfterMs > 30_000 {
		t.Fatalf("retry_after_ms %d outside the wire clamp [1ms, 30s]", d.RetryAfterMs)
	}
	hdr := rec.Header().Get("Retry-After")
	if hdr == "" {
		t.Fatal("refusal without Retry-After header")
	}
	secs, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil {
		t.Fatalf("Retry-After %q: %v", hdr, err)
	}
	if want := serve.RetryAfterHeaderSeconds(d.RetryAfterMs); secs != want {
		t.Fatalf("Retry-After %d disagrees with retry_after_ms %d (want %d s)",
			secs, d.RetryAfterMs, want)
	}
	if secs*1000 < d.RetryAfterMs {
		t.Fatalf("header promises a shorter wait (%d s) than the body (%d ms)", secs, d.RetryAfterMs)
	}
}

// TestRetryHintWireClamp: a router hint derived from a huge probe
// interval must still respect the shared [1ms, 30s] wire clamp.
func TestRetryHintWireClamp(t *testing.T) {
	r := &Router{opts: Options{ProbeInterval: time.Minute}}
	if got := r.retryHintMs(); got != 30_000 {
		t.Fatalf("retryHintMs with 1m probes: %d, want 30000", got)
	}
}

// TestBadShardLineAnsweredLocally: a reply line from a shard that does
// not decode answers that line error, stamped with the shard, and the
// rest of the sub-batch keeps the shard's own decisions.
func TestBadShardLineAnsweredLocally(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	s1.garble.Store(2) // the second reply line of each post
	r := newTestRouter(t, Options{}, s1)
	line := lineAt(geo.Point{X: 0.5, Y: 0.5})

	outs := postLines(t, r.Handler(), "/v1/requests", line, line, line)
	for i, want := range []string{serve.StatusOK, serve.StatusError, serve.StatusOK} {
		if outs[i].Status != want || outs[i].Shard != "s1" {
			t.Fatalf("line %d: %+v, want %s from s1", i, outs[i], want)
		}
	}
	if outs[1].Error != "bad shard response" {
		t.Fatalf("undecodable shard line: %+v", outs[1])
	}
	if st, _ := r.Shard("s1"); st.OK != 2 {
		t.Fatalf("s1 counted %d ok lines, want 2", st.OK)
	}
}

// BenchmarkRouterForward times the whole router hop in-process: read
// the call, decode each line, post to one fake shard, decode and stamp
// its replies, and answer NDJSON.
func BenchmarkRouterForward(b *testing.B) {
	s1 := newFakeShard(b, "s1")
	r := newTestRouter(b, Options{}, s1)
	h := r.Handler()
	line := lineAt(geo.Point{X: 0.5, Y: 0.5})
	for _, n := range []int{1, 64} {
		body := strings.Repeat(line+"\n", n)
		b.Run(strconv.Itoa(n)+"lines", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/x-ndjson")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}
