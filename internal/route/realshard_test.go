package route

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/serve"
)

// TestRouterOverRealShards puts the router in front of two in-process
// serve.Servers, s1 replaying a recorded stream and s2 live, each
// taking 50 ms per event. The paper decides every arrival once and
// irrevocably, and so must the fleet: every client line gets the
// owning shard's own decision (a replay shard would answer a re-sent
// line "duplicate", and a live shard would apply it a second time), and
// each shard admits and applies every event exactly once.
func TestRouterOverRealShards(t *testing.T) {
	names := []string{"s1", "s2"}
	p1 := pointOwnedBy(t, "s1", names, 0)
	p2 := pointOwnedBy(t, "s2", names, 0)

	w := &core.Worker{ID: 1, Arrival: 1, Loc: p1, Radius: 1, Platform: 1}
	r := &core.Request{ID: 1, Arrival: 2, Loc: p1, Value: 10, Platform: 1}
	recorded, err := core.NewStream([]core.Event{
		{Time: 1, Kind: core.WorkerArrival, Worker: w},
		{Time: 2, Kind: core.RequestArrival, Request: r},
	})
	if err != nil {
		t.Fatal(err)
	}

	const delay = 50 * time.Millisecond
	servers := map[string]*serve.Server{}
	var shards []ShardConfig
	for _, name := range names {
		opts := serve.Options{Seed: 1, ProcessDelay: delay}
		if name == "s1" {
			opts.Replay = recorded
		}
		srv, err := serve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			_, _ = srv.Close()
		})
		servers[name] = srv
		shards = append(shards, ShardConfig{Name: name, URL: ts.URL})
	}
	rt, err := New(Options{Shards: shards, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for _, name := range names {
		waitReady(t, rt, name, true)
	}

	workerLine := func(p geo.Point) string {
		return fmt.Sprintf(`{"id":1,"x":%v,"y":%v,"platform":1,"radius":1}`, p.X, p.Y)
	}
	requestLine := func(p geo.Point) string {
		return fmt.Sprintf(`{"id":1,"x":%v,"y":%v,"platform":1,"value":10}`, p.X, p.Y)
	}
	outs := postLines(t, rt.Handler(), "/v1/workers", workerLine(p1), workerLine(p2))
	for i, out := range outs {
		if out.Status != serve.StatusOK || out.Kind != "worker" || out.ID != 1 || out.Shard != names[i] {
			t.Fatalf("worker line %d: %+v, want ok for worker 1 from %s", i, out, names[i])
		}
	}
	outs = postLines(t, rt.Handler(), "/v1/requests", requestLine(p1), requestLine(p2))
	for i, out := range outs {
		if out.Status != serve.StatusOK || out.Shard != names[i] || !out.Served || out.WorkerID != 1 || out.Revenue != 10 {
			t.Fatalf("request line %d: %+v, want request 1 served by worker 1 on %s", i, out, names[i])
		}
	}

	for _, name := range names {
		srv := servers[name]
		if _, err := srv.Close(); err != nil {
			t.Fatalf("%s Close: %v", name, err)
		}
		sc := srv.Snapshot().Server
		if sc.Accepted != 2 || sc.Applied != 2 || sc.BadEvents != 0 || sc.Matched != 1 {
			t.Fatalf("%s: accepted=%d applied=%d bad=%d matched=%d, want 2/2/0/1",
				name, sc.Accepted, sc.Applied, sc.BadEvents, sc.Matched)
		}
		st, _ := rt.Shard(name)
		if st.Lines != 2 || st.OK != 2 || st.Retries != 0 || st.Errors != 0 {
			t.Fatalf("router's %s accounting: %+v, want 2 lines, 2 ok, no retries or errors", name, st)
		}
	}
}
