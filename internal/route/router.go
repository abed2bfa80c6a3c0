package route

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Shards is the backing fleet; at least one. Names are the
	// rendezvous-hash identities — keep them stable across restarts.
	Shards []ShardConfig
	// CellSize is the spatial-hash cell edge length in km: 0 selects
	// index.DefaultCell, and anything else must be positive and finite.
	// It must match the geometry used to split replay streams.
	CellSize float64
	// ProbeInterval is the per-shard health-check period: 0 selects
	// 100ms, and a negative period is an error.
	ProbeInterval time.Duration
}

// routerCounters is the router-side accounting exposed at /v1/metrics.
type routerCounters struct {
	calls    atomic.Int64 // client HTTP calls forwarded (or refused)
	lines    atomic.Int64 // event lines seen
	badLines atomic.Int64 // lines the router could not parse
	busy     atomic.Int64 // lines refused by the inflight bound
	refused  atomic.Int64 // lines refused because the owner is not ready
}

// Router is the fleet front: create with New, expose Handler, stop
// with Close.
type Router struct {
	opts      Options
	names     []string // rendezvous identities, in Options.Shards order
	shards    []*shard // shards[i] is names[i]
	mux       *http.ServeMux
	client    *http.Client
	started   time.Time
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	inflight  chan struct{}
	ctr       routerCounters
}

// maxInflight bounds concurrently forwarded client calls; excess
// answers 503 immediately. The router never queues.
const maxInflight = 256

// New validates the options, resolves the cell size, builds the shard
// table and starts one health prober per shard.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("route: need at least one shard")
	}
	cell, err := resolveCell(opts.CellSize)
	if err != nil {
		return nil, err
	}
	opts.CellSize = cell
	switch {
	case opts.ProbeInterval < 0:
		return nil, fmt.Errorf("route: probe interval %v must not be negative", opts.ProbeInterval)
	case opts.ProbeInterval == 0:
		opts.ProbeInterval = 100 * time.Millisecond
	}

	// The default transport keeps only 2 idle connections per host;
	// with every client call fanning out to the same handful of shards,
	// that churns TCP connects and costs ~40% throughput.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap
	tr.MaxIdleConnsPerHost = 4 * maxInflight
	r := &Router{
		opts:     opts,
		client:   &http.Client{Transport: tr},
		started:  time.Now(),
		done:     make(chan struct{}),
		inflight: make(chan struct{}, maxInflight),
	}
	for _, sc := range opts.Shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("route: shard needs name and url, got %q=%q", sc.Name, sc.URL)
		}
		if slices.Contains(r.names, sc.Name) {
			return nil, fmt.Errorf("route: duplicate shard name %q", sc.Name)
		}
		r.names = append(r.names, sc.Name)
		r.shards = append(r.shards, &shard{name: sc.Name, url: strings.TrimRight(sc.URL, "/")})
	}

	r.mux = http.NewServeMux()
	serve.HandleIngest(r.mux, r.handleForward)
	r.mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	r.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	r.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	r.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	for _, sh := range r.shards {
		r.wg.Add(1)
		go r.probeLoop(sh)
	}
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the health probers and drops the idle shard connections.
// Idempotent.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Shard returns the live status of one shard (tests and status pages).
func (r *Router) Shard(name string) (ShardStatus, bool) {
	if i := slices.Index(r.names, name); i >= 0 {
		return r.shards[i].status(), true
	}
	return ShardStatus{}, false
}

// wirePoint is the lenient per-line parse the router needs: only the
// coordinates matter for partitioning; full validation is the shard's
// job (strict parse, value/radius checks). It is decoded by
// encoding/json, as the shard's WireEvent is, so both read the same
// keys (case-insensitively, escapes resolved) and the same numbers.
type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// handleForward is the router hot path: read the call as a shard
// would, pick each line's shard by cell ownership gated on readiness,
// post the per-shard sub-batches concurrently, once each, and answer
// the decisions in input order as a shard would. Nothing queues: a
// not-ready owner answers its lines immediately with a 503-class
// status and a retry hint.
func (r *Router) handleForward(w http.ResponseWriter, req *http.Request, kind core.EventKind) {
	r.ctr.calls.Add(1)
	lines, batch, ok := serve.ReadIngest(w, req)
	if !ok {
		return
	}
	r.ctr.lines.Add(int64(len(lines)))

	outs := make([]serve.WireDecision, len(lines))
	select {
	case r.inflight <- struct{}{}:
		defer func() { <-r.inflight }()
	default:
		// Backpressure, not queueing: every line answers unavailable with
		// a hint, so well-behaved clients back off instead of piling on.
		r.ctr.busy.Add(int64(len(lines)))
		busy := serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
			RetryAfterMs: r.retryHintMs(), Error: "router at max inflight"}
		for i := range outs {
			outs[i] = busy
		}
		serve.WriteDecisions(w, batch, outs)
		return
	}

	routes := r.dispatch(kind, lines, outs)

	// Group the forwardable lines per shard, preserving input order
	// within each group (the shard sequences a batch FIFO).
	groups := make(map[*shard][]int)
	for i, sh := range routes {
		if sh != nil {
			groups[sh] = append(groups[sh], i)
		}
	}
	var wg sync.WaitGroup
	for sh, idxs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.forwardGroup(req.Context(), sh, kind, lines, idxs, outs)
		}()
	}
	wg.Wait()
	serve.WriteDecisions(w, batch, outs)
}

// dispatch picks each line's shard: its cell's rendezvous owner, or nil
// when the line was answered locally (unparseable, or the owner is not
// ready).
func (r *Router) dispatch(kind core.EventKind, lines [][]byte, outs []serve.WireDecision) []*shard {
	routes := make([]*shard, len(lines))
	for i, line := range lines {
		var pt wirePoint
		if err := json.Unmarshal(line, &pt); err != nil {
			r.ctr.badLines.Add(1)
			outs[i] = serve.WireDecision{Status: serve.StatusError, Kind: serve.KindName(kind),
				Error: "bad event: " + err.Error()}
			continue
		}
		sh := r.shards[cells.OwnerIndex(cells.Of(geo.Point{X: pt.X, Y: pt.Y}, r.opts.CellSize), r.names)]
		if !sh.ready.Load() {
			// The hint tells clients when the prober could plausibly have
			// seen the owner ready again.
			r.ctr.refused.Add(1)
			outs[i] = serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
				Shard: sh.name, RetryAfterMs: r.retryHintMs(),
				Error: "shard " + sh.name + " unavailable"}
			continue
		}
		routes[i] = sh
	}
	return routes
}

// retryHintMs is the router-originated backoff hint: a couple of probe
// periods, floored at 100ms — roughly when a restarted shard would be
// re-admitted. Clamped through the shared wire helper so a router hint
// obeys the same [1ms, 30s] bounds, and the same body/header
// precedence, as a shard-originated one (see serve/admission.go).
func (r *Router) retryHintMs() int64 {
	hint := 2 * r.opts.ProbeInterval
	if hint < 100*time.Millisecond {
		hint = 100 * time.Millisecond
	}
	return serve.RetryAfterWireMs(hint)
}

// forwardGroup posts one shard's sub-batch through serve.Post, once and
// bounded by callTimeout, and scatters the per-line decisions back into
// outs at their original indices, each stamped with the shard's name.
//
// A failed post answers every line unavailable with a retry hint and is
// not sent again: the failure may have come after the shard admitted
// and applied the sub-batch, and the paper decides each arrival once,
// so only the client may send it again. The one safe re-send happens
// below the router: net/http's Transport re-sends a request whose bytes
// never left a reused connection (persistConn.shouldRetryRequest in
// GOROOT's net/http/transport.go: a nothingWrittenError with GetBody
// set, which http.NewRequestWithContext sets for serve.Post's
// *bytes.Reader body), and never a POST it has written, which is not
// replayable without an Idempotency-Key. Shard backpressure lines
// (shed/draining) pass through with their own retry_after_ms.
func (r *Router) forwardGroup(ctx context.Context, sh *shard, kind core.EventKind, lines [][]byte, idxs []int, outs []serve.WireDecision) {
	var payload []byte
	for _, i := range idxs {
		payload = append(payload, lines[i]...)
		payload = append(payload, '\n')
	}
	n := int64(len(idxs))
	sh.lines.Add(n)

	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	replies, err := serve.Post(ctx, r.client, sh.url, kind, payload)
	if err != nil {
		sh.errors.Add(n)
		failed := serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
			Shard: sh.name, RetryAfterMs: r.retryHintMs(),
			Error: "shard call failed: " + err.Error()}
		for _, i := range idxs {
			outs[i] = failed
		}
		return
	}

	for k, i := range idxs {
		var d serve.WireDecision
		switch {
		case k >= len(replies):
			d = serve.WireDecision{Status: serve.StatusError, Kind: serve.KindName(kind),
				Error: "shard returned short response"}
		case json.Unmarshal(replies[k], &d) != nil:
			d = serve.WireDecision{Status: serve.StatusError, Kind: serve.KindName(kind),
				Error: "bad shard response"}
		}
		d.Shard = sh.name
		switch d.Status {
		case serve.StatusOK, serve.StatusDuplicate:
			sh.ok.Add(1)
		case serve.StatusShed:
			sh.shed.Add(1)
		case serve.StatusDraining, serve.StatusUnavailable:
			sh.unavailable.Add(1)
		}
		outs[i] = d
	}
}

// callTimeout bounds a shard HTTP call.
const callTimeout = 10 * time.Second

// fleetHealth is the router's /healthz document.
type fleetHealth struct {
	Status      string `json:"status"` // "ok" while ≥1 shard is ready
	ReadyShards int    `json:"ready_shards"`
	TotalShards int    `json:"total_shards"`
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := fleetHealth{TotalShards: len(r.names)}
	for _, sh := range r.shards {
		if sh.ready.Load() {
			h.ReadyShards++
		}
	}
	if h.ReadyShards > 0 {
		h.Status = "ok"
		serve.WriteJSON(w, http.StatusOK, h)
		return
	}
	h.Status = "no-ready-shards"
	serve.WriteJSON(w, http.StatusServiceUnavailable, h)
}

// Snapshot is the router's /v1/metrics document: router-side
// accounting, the cell size it routes on, and the per-shard table.
type Snapshot struct {
	UptimeMs    int64         `json:"uptime_ms"`
	CellSize    float64       `json:"cell_size"`
	Calls       int64         `json:"calls"`
	Lines       int64         `json:"lines"`
	BadLines    int64         `json:"bad_lines"`
	Busy        int64         `json:"busy"`
	Refused     int64         `json:"refused"`
	ReadyShards int           `json:"ready_shards"`
	Shards      []ShardStatus `json:"shards"`
}

// Snapshot returns the current fleet metrics document.
func (r *Router) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeMs: time.Since(r.started).Milliseconds(),
		CellSize: r.opts.CellSize,
		Calls:    r.ctr.calls.Load(),
		Lines:    r.ctr.lines.Load(),
		BadLines: r.ctr.badLines.Load(),
		Busy:     r.ctr.busy.Load(),
		Refused:  r.ctr.refused.Load(),
	}
	for _, sh := range r.shards {
		st := sh.status()
		if st.Ready {
			snap.ReadyShards++
		}
		snap.Shards = append(snap.Shards, st)
	}
	return snap
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, r.Snapshot())
}
