package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/route"
	"crossmatch/internal/serve"
)

// serveCfg describes a workload that goes through the serving stack on
// loopback: replay-mode serve.Server instances behind real net/http
// listeners, optionally fronted by a route.Router, driven by the
// bench-owned generator from the same process.
type serveCfg struct {
	name     string
	alg      string
	shards   int     // 0: one server, no router; n>0: n replay shards behind a router
	wal      bool    // WALDir set, FsyncBatch 64, each pass followed by close → recover
	maxBatch int     // events per POST cap; 1 = single JSON objects
	rate     float64 // open-loop schedule, events/s; 0 = closed loop
}

const fsyncBatch = 64

// httpNode is one real loopback listener.
type httpNode struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed after close()
	}()
	return n, nil
}

func (n *httpNode) close() {
	_ = n.srv.Close()
	<-n.done
}

// shardPart is one serving shard's share of the workload: its recorded
// sub-stream and the offline oracle for it.
type shardPart struct {
	name   string
	stream *core.Stream
	want   digest
}

// serveInst is one fresh serving topology.
type serveInst struct {
	servers []*serve.Server
	mcs     []*metrics.Collector
	nodes   []*httpNode
	router  *route.Router
	url     string
	walDir  string
}

type serveRun struct {
	cfg    serveCfg
	seed   int64
	outDir string
	stream *core.Stream
	ref    *platform.Result // offline reference over the whole stream (probes)
	parts  []shardPart
	expect map[int64]assignment
	jobs   []job
	seqOf  map[eventKey]int64
	client *http.Client
	genS   float64
	next   *serveInst
	walSeq int
	fsType string
	// recoverS is the wall time serve.New took on the last pass's WAL
	// directory: log read, full re-drive, digest verify, ready.
	recoverS float64
}

type eventKey struct {
	kind core.EventKind
	id   int64
}

func setupServe(cfg serveCfg, spec streamSpec, seed int64, outDir string) (*serveRun, error) {
	r := &serveRun{cfg: cfg, seed: seed, outDir: outDir, client: newLoadClient(maxConns)}
	t0 := time.Now()
	stream, err := spec.generate(seed)
	if err != nil {
		return nil, err
	}
	r.genS = time.Since(t0).Seconds()
	r.stream = stream
	r.expect = map[int64]assignment{}
	if cfg.wal {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		r.fsType = fsTypeOf(outDir)
	}
	if cfg.shards == 0 {
		if r.ref, err = reference(stream, cfg.alg, seed); err != nil {
			return nil, err
		}
		r.parts = []shardPart{{name: "direct", stream: stream, want: digestOf(r.ref)}}
		r.expect = expectationOf(r.ref)
	} else {
		names := cells.Names(cfg.shards)
		subs, err := route.SplitStream(stream, names, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			res, err := reference(subs[name], cfg.alg, seed)
			if err != nil {
				return nil, fmt.Errorf("shard %s: %w", name, err)
			}
			r.parts = append(r.parts, shardPart{name: name, stream: subs[name], want: digestOf(res)})
			for id, a := range expectationOf(res) {
				r.expect[id] = a
			}
		}
	}
	if r.jobs, err = buildJobs(stream.Events(), cfg.maxBatch); err != nil {
		return nil, err
	}
	r.seqOf = make(map[eventKey]int64, stream.Len())
	for i, ev := range stream.Events() {
		r.seqOf[eventKey{ev.Kind, eventID(ev)}] = int64(i)
	}
	if r.next, err = r.build(nil); err != nil {
		return nil, err
	}
	// Warm-up: the first tenth of the stream on a throwaway topology, in
	// the workload's own loop (closed, or open at its schedule).
	warm, err := r.build(nil)
	if err != nil {
		return nil, err
	}
	n := 0
	for n < len(r.jobs) && r.jobs[n].first < stream.Len()/10 {
		n++
	}
	wres := runLoad(loadOpts{url: warm.url, conns: maxConns, rate: cfg.rate, ndjson: cfg.maxBatch > 1,
		events: stream.Events()[:r.jobs[n-1].first+r.jobs[n-1].n], jobs: r.jobs[:n], expect: r.expect, client: r.client})
	r.teardown(warm)
	if wres.firstErr != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.name, wres.firstErr)
	}
	return r, nil
}

func (r *serveRun) describe() string {
	req, work := countKinds(r.stream.Events())
	loop := fmt.Sprintf("closed loop, %d connections, NDJSON batches of consecutive same-kind events capped at %d (%.1f events/POST)",
		maxConns, r.cfg.maxBatch, float64(r.stream.Len())/float64(len(r.jobs)))
	if r.cfg.rate > 0 {
		loop = fmt.Sprintf("open loop, %d connections, one event per POST, fixed schedule of %.0f events/s", maxConns, r.cfg.rate)
	}
	topo := "one replay serve.Server"
	if r.cfg.shards > 0 {
		topo = fmt.Sprintf("%d replay serve.Server shards behind route.Router", r.cfg.shards)
	}
	if r.cfg.wal {
		topo += fmt.Sprintf(", WAL on (fsync batch %d, %s)", fsyncBatch, r.fsType)
	} else {
		topo += ", WAL off"
	}
	return fmt.Sprintf("%s: %d events (%d requests + %d worker arrivals), %s, %s on loopback net/http; %s",
		r.cfg.name, r.stream.Len(), req, work, r.cfg.alg, topo, loop)
}

func (r *serveRun) serverOpts(p shardPart, mc *metrics.Collector, walDir string) serve.Options {
	o := serve.Options{Algorithm: r.cfg.alg, Seed: r.seed, Replay: p.stream, Metrics: mc}
	if walDir != "" {
		o.WALDir = walDir
		o.FsyncBatch = fsyncBatch
	}
	return o
}

// build starts a fresh topology. With a recorder, every handler the
// harness can reach from outside is wrapped in a span middleware.
func (r *serveRun) build(rec *recorder) (*serveInst, error) {
	inst := &serveInst{}
	if err := r.start(inst, rec); err != nil {
		r.teardown(inst)
		return nil, err
	}
	return inst, nil
}

func (r *serveRun) start(inst *serveInst, rec *recorder) error {
	if r.cfg.wal {
		r.walSeq++
		inst.walDir = filepath.Join(r.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), r.walSeq))
		if err := os.RemoveAll(inst.walDir); err != nil {
			return err
		}
	}
	shardParent := spanCall // what encloses a shard's handler span
	if r.cfg.shards > 0 {
		shardParent = spanRoute
	}
	var shardCfgs []route.ShardConfig
	for _, p := range r.parts {
		mc := metrics.New()
		srv, err := serve.New(r.serverOpts(p, mc, inst.walDir))
		if err != nil {
			return err
		}
		inst.servers = append(inst.servers, srv)
		inst.mcs = append(inst.mcs, mc)
		node, err := listen(r.spanned(spanServe, shardParent, rec, srv.Handler()))
		if err != nil {
			return err
		}
		inst.nodes = append(inst.nodes, node)
		inst.url = node.url
		shardCfgs = append(shardCfgs, route.ShardConfig{Name: p.name, URL: node.url})
	}
	if r.cfg.shards > 0 {
		rt, err := route.New(route.Options{Shards: shardCfgs})
		if err != nil {
			return err
		}
		inst.router = rt
		node, err := listen(r.spanned(spanRoute, spanCall, rec, rt.Handler()))
		if err != nil {
			return err
		}
		inst.nodes = append(inst.nodes, node)
		inst.url = node.url
		// The router forwards only to shards its prober has seen ready.
		deadline := time.Now().Add(watchdog)
		for _, p := range r.parts {
			for {
				if st, ok := rt.Shard(p.name); ok && st.Ready {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("shard %s not ready behind the router after %v", p.name, watchdog)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// teardown stops a topology without looking at its results.
func (r *serveRun) teardown(inst *serveInst) {
	if inst == nil {
		return
	}
	if inst.router != nil {
		inst.router.Close()
	}
	for _, n := range inst.nodes {
		n.close()
	}
	for _, s := range inst.servers {
		_, _ = s.Close()
	}
	if inst.walDir != "" {
		_ = os.RemoveAll(inst.walDir)
	}
	r.client.CloseIdleConnections()
}

func (r *serveRun) close() {
	r.teardown(r.next)
	r.next = nil
}

// spanned wraps a handler in the bench middleware: one span per ingest
// POST, identified by the stream index of the body's first event.
func (r *serveRun) spanned(name, parent string, rec *recorder, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || !strings.HasPrefix(req.URL.Path, "/v1/") {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, req)
		kind := core.RequestArrival
		if strings.HasSuffix(req.URL.Path, "/workers") {
			kind = core.WorkerArrival
		}
		seq, ok := r.seqOf[eventKey{kind, firstID(body)}]
		if !ok {
			seq = -1
		}
		rec.add(name, parent, seq, start, time.Now())
	})
}

// firstID scans the "id" of the first event of an ingest body.
func firstID(body []byte) int64 {
	const key = `"id":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	var id int64
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// pass pushes the whole stream through a fresh topology, then shuts it
// down the way an operator can from outside (BeginDrain + Close) and
// verifies every digest: each server's final Result against its offline
// oracle, and — with the WAL on — the state serve.New recovers from the
// pass's log against the state before shutdown.
func (r *serveRun) pass(rec *recorder) (passResult, error) {
	inst := r.next
	r.next = nil
	if inst == nil || rec != nil {
		r.teardown(inst)
		var err error
		if inst, err = r.build(rec); err != nil {
			return passResult{}, err
		}
	}
	defer r.teardown(inst)
	load := runLoad(loadOpts{url: inst.url, conns: maxConns, rate: r.cfg.rate, ndjson: r.cfg.maxBatch > 1,
		events: r.stream.Events(), jobs: r.jobs, expect: r.expect, client: r.client, rec: rec})
	out := passResult{events: r.stream.Len(), wall: load.wall, latNs: load.latNs,
		attempted: load.attempted, failed: load.failed, lateNs: load.lateNs}
	if load.firstErr != nil {
		return out, fmt.Errorf("%s: %w", r.cfg.name, load.firstErr)
	}

	out.counts = map[string]float64{}
	var before []serve.ServerCounters
	for _, s := range inst.servers {
		c := s.Snapshot().Server
		before = append(before, c)
		out.counts["serve.shed"] += float64(c.ShedRateLimit + c.ShedQueueFull)
		out.counts["serve.deadline_miss"] += float64(c.DeadlineMiss)
		out.counts["serve.bad_events"] += float64(c.BadEvents)
	}
	if inst.router != nil {
		snap := inst.router.Snapshot()
		maxLines, sumLines := 0.0, 0.0
		for _, st := range snap.Shards {
			out.counts["route.retries"] += float64(st.Retries)
			out.counts["route.hedges"] += float64(st.Hedges)
			out.counts["route.unavailable"] += float64(st.Unavailable) + float64(st.Errors)
			sumLines += float64(st.Lines)
			maxLines = math.Max(maxLines, float64(st.Lines))
		}
		out.counts["route.unavailable"] += float64(snap.Refused + snap.Busy + snap.BadLines)
		out.counts["route.shard_skew"] = ratio(maxLines, sumLines/float64(len(snap.Shards)))
	}
	for i, s := range inst.servers {
		s.BeginDrain()
		res, err := s.Close()
		if err != nil {
			return out, fmt.Errorf("%s: closing %s: %w", r.cfg.name, r.parts[i].name, err)
		}
		if got := digestOf(res); got != r.parts[i].want {
			return out, fmt.Errorf("%s: shard %s digest differs from its offline oracle\n  served:  %v\n  offline: %v",
				r.cfg.name, r.parts[i].name, got, r.parts[i].want)
		}
		programCounts(inst.mcs[i].Snapshot(), out.counts)
	}
	if r.cfg.wal {
		var err error
		if r.recoverS, err = r.recoverAndVerify(inst.walDir, before[0]); err != nil {
			return out, err
		}
	}
	return out, nil
}

// recoverAndVerify restarts a server on the pass's WAL directory and
// times serve.New: log read, full re-drive, snapshot digest verify,
// ready. The recovered counters must equal the ones before shutdown,
// and the recovered engine's final Result the offline oracle.
func (r *serveRun) recoverAndVerify(walDir string, before serve.ServerCounters) (float64, error) {
	t0 := time.Now()
	srv, err := serve.New(r.serverOpts(r.parts[0], metrics.New(), walDir))
	el := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: recovery: %w", r.cfg.name, err)
	}
	after := srv.Snapshot().Server
	info := srv.Recovery()
	res, cerr := srv.Close()
	switch {
	case cerr != nil:
		return 0, fmt.Errorf("%s: closing the recovered server: %w", r.cfg.name, cerr)
	case !info.Recovered || info.Events != int64(r.stream.Len()):
		return 0, fmt.Errorf("%s: recovery re-drove %d of %d events", r.cfg.name, info.Events, r.stream.Len())
	case after.Served != before.Served || after.Matched != before.Matched ||
		math.Float64bits(after.Revenue) != math.Float64bits(before.Revenue):
		return 0, fmt.Errorf("%s: recovered counters differ from the ones before shutdown: served %d/%d matched %d/%d revenue %x/%x",
			r.cfg.name, after.Served, before.Served, after.Matched, before.Matched,
			math.Float64bits(after.Revenue), math.Float64bits(before.Revenue))
	}
	if got := digestOf(res); got != r.parts[0].want {
		return 0, fmt.Errorf("%s: WAL-recovered digest differs from the offline oracle\n  recovered: %v\n  offline:   %v",
			r.cfg.name, got, r.parts[0].want)
	}
	return el.Seconds(), nil
}
