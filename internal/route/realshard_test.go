package route

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/serve"
)

// realFleet is a router in front of two in-process serve.Servers, s1
// replaying a recorded stream (worker 1, then request 1, both in s1's
// cell) and s2 live, each taking 50 ms per event. wrap, when non-nil,
// sits between each shard's listener and its handler.
type realFleet struct {
	names   []string
	pts     []geo.Point // pts[i] lies in a cell names[i] owns
	servers []*serve.Server
	rt      *Router
}

func newRealFleet(t *testing.T, wrap func(http.Handler) http.Handler) *realFleet {
	t.Helper()
	f := &realFleet{names: []string{"s1", "s2"}}
	for _, name := range f.names {
		f.pts = append(f.pts, pointOwnedBy(t, name, f.names, 0))
	}
	w := &core.Worker{ID: 1, Arrival: 1, Loc: f.pts[0], Radius: 1, Platform: 1}
	r := &core.Request{ID: 1, Arrival: 2, Loc: f.pts[0], Value: 10, Platform: 1}
	recorded, err := core.NewStream([]core.Event{
		{Time: 1, Kind: core.WorkerArrival, Worker: w},
		{Time: 2, Kind: core.RequestArrival, Request: r},
	})
	if err != nil {
		t.Fatal(err)
	}

	const delay = 50 * time.Millisecond
	var shards []ShardConfig
	for _, name := range f.names {
		opts := serve.Options{Seed: 1, ProcessDelay: delay}
		if name == "s1" {
			opts.Replay = recorded
		}
		srv, err := serve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			_, _ = srv.Close()
		})
		f.servers = append(f.servers, srv)
		shards = append(shards, ShardConfig{Name: name, URL: ts.URL})
	}
	if f.rt, err = New(Options{Shards: shards, ProbeInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.rt.Close)
	for _, name := range f.names {
		waitReady(t, f.rt, name, true)
	}
	return f
}

// post sends one line per shard, at that shard's point: worker 1
// (radius 1) or request 1 (value 10).
func (f *realFleet) post(t *testing.T, kind core.EventKind) []serve.WireDecision {
	t.Helper()
	path, field := "/v1/requests", `"value":10`
	if kind == core.WorkerArrival {
		path, field = "/v1/workers", `"radius":1`
	}
	var lines []string
	for _, p := range f.pts {
		lines = append(lines, fmt.Sprintf(`{"id":1,"x":%v,"y":%v,"platform":1,%s}`, p.X, p.Y, field))
	}
	return postLines(t, f.rt.Handler(), path, lines...)
}

// checkServed fails unless each request line was served by worker 1 on
// its owner.
func (f *realFleet) checkServed(t *testing.T, outs []serve.WireDecision) {
	t.Helper()
	for i, out := range outs {
		if out.Status != serve.StatusOK || out.Shard != f.names[i] || !out.Served || out.WorkerID != 1 || out.Revenue != 10 {
			t.Fatalf("request line %d: %+v, want request 1 served by worker 1 on %s", i, out, f.names[i])
		}
	}
}

// TestRouterOverRealShards: the paper decides every arrival once and
// irrevocably, and so must the fleet. Every client line gets the owning
// shard's own decision (a replay shard would answer a re-sent line
// "duplicate", and a live shard would apply it a second time), and each
// shard admits and applies every event exactly once.
func TestRouterOverRealShards(t *testing.T) {
	f := newRealFleet(t, nil)
	for i, out := range f.post(t, core.WorkerArrival) {
		if out.Status != serve.StatusOK || out.Kind != "worker" || out.ID != 1 || out.Shard != f.names[i] {
			t.Fatalf("worker line %d: %+v, want ok for worker 1 from %s", i, out, f.names[i])
		}
	}
	f.checkServed(t, f.post(t, core.RequestArrival))

	for i, name := range f.names {
		srv := f.servers[i]
		if _, err := srv.Close(); err != nil {
			t.Fatalf("%s Close: %v", name, err)
		}
		sc := srv.Snapshot().Server
		if sc.Accepted != 2 || sc.Applied != 2 || sc.BadEvents != 0 || sc.Matched != 1 {
			t.Fatalf("%s: accepted=%d applied=%d bad=%d matched=%d, want 2/2/0/1",
				name, sc.Accepted, sc.Applied, sc.BadEvents, sc.Matched)
		}
		st, _ := f.rt.Shard(name)
		if st.Lines != 2 || st.OK != 2 || st.Retries != 0 || st.Errors != 0 {
			t.Fatalf("router's %s accounting: %+v, want 2 lines, 2 ok, no retries or errors", name, st)
		}
	}
}

// lostReply wraps a shard handler: its first ingest post runs to the
// end into a recorder, so the shard admits, applies and answers, and
// then the connection closes before a byte of that answer is written.
// Every other request passes through.
type lostReply struct {
	next  http.Handler
	posts atomic.Int64
}

func (h *lostReply) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost || h.posts.Add(1) > 1 {
		h.next.ServeHTTP(w, req)
		return
	}
	h.next.ServeHTTP(httptest.NewRecorder(), req)
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

// TestRouterSendsOnce: a sub-batch the shard decided but whose reply
// was lost is not posted again. Its lines answer unavailable with a
// retry hint and the client owns the retry: each shard has seen one
// post and applied one event, stays ready, and serves the next line.
func TestRouterSendsOnce(t *testing.T) {
	var wraps []*lostReply // in shard order
	f := newRealFleet(t, func(h http.Handler) http.Handler {
		lr := &lostReply{next: h}
		wraps = append(wraps, lr)
		return lr
	})
	for i, out := range f.post(t, core.WorkerArrival) {
		if out.Status != serve.StatusUnavailable || out.RetryAfterMs <= 0 || out.Shard != f.names[i] {
			t.Errorf("worker line %d: %+v, want unavailable from %s with a retry hint", i, out, f.names[i])
		}
	}
	for i, name := range f.names {
		posts, applied := wraps[i].posts.Load(), f.servers[i].Snapshot().Server.Applied
		if posts != 1 || applied != 1 {
			t.Errorf("%s: posts=%d applied=%d, want 1/1", name, posts, applied)
		}
		if st, _ := f.rt.Shard(name); !st.Ready {
			t.Errorf("%s left the fleet after one lost reply: %+v", name, st)
		}
	}
	f.checkServed(t, f.post(t, core.RequestArrival))
}
