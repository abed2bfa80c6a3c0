package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/geo"
	"crossmatch/internal/metrics"
	"crossmatch/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Shards is the backing fleet; at least one. Names are the
	// rendezvous-hash identities — keep them stable across restarts.
	Shards []ShardConfig
	// CellSize is the spatial-hash cell edge length in km (default
	// index.DefaultCell via cells.Of). It must match the geometry used
	// to split replay streams.
	CellSize float64
	// ProbeInterval is the per-shard health-check period (default
	// 100ms).
	ProbeInterval time.Duration
	// Metrics receives route_* counters and breaker transitions;
	// created internally when nil.
	Metrics *metrics.Collector
}

// routerCounters is the router-side accounting exposed at /v1/metrics.
type routerCounters struct {
	calls    atomic.Int64 // client HTTP calls forwarded (or refused)
	lines    atomic.Int64 // event lines seen
	badLines atomic.Int64 // lines the router could not parse
	busy     atomic.Int64 // lines refused by the inflight bound
	refused  atomic.Int64 // lines refused because no eligible shard
}

// Router is the fleet front: create with New, expose Handler, stop
// with Close.
type Router struct {
	opts      Options
	names     []string // rendezvous identities, in Options.Shards order
	shards    []*shard // shards[i] is names[i]
	mux       *http.ServeMux
	client    *http.Client
	met       *metrics.Collector
	started   time.Time
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	inflight  chan struct{}
	ctr       routerCounters

	rngMu sync.Mutex
	rng   *rand.Rand
}

// maxInflight bounds concurrently forwarded client calls; excess
// answers 503 immediately. The router never queues.
const maxInflight = 256

// New validates the options, builds the shard table and starts one
// health prober per shard.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("route: need at least one shard")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 100 * time.Millisecond
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.New()
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
		met:      opts.Metrics,
		started:  time.Now(),
		done:     make(chan struct{}),
		inflight: make(chan struct{}, maxInflight),
		rng:      rand.New(rand.NewSource(1)), // backoff jitter only; no determinism contract
	}
	for _, sc := range opts.Shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("route: shard needs name and url, got %q=%q", sc.Name, sc.URL)
		}
		if slices.Contains(r.names, sc.Name) {
			return nil, fmt.Errorf("route: duplicate shard name %q", sc.Name)
		}
		r.names = append(r.names, sc.Name)
		r.shards = append(r.shards, &shard{
			name: sc.Name,
			url:  strings.TrimRight(sc.URL, "/"),
			// Tighter than the engine-side default: a SIGKILLed shard must
			// be routed around within the probe deadline, not after five
			// failed requests. The cooldown is in ms of router stream time.
			breaker: fault.NewBreaker(fault.BreakerConfig{FailureThreshold: 3, CooldownTicks: 750}, r.met),
		})
	}

	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, req *http.Request) {
		r.handleForward(w, req, core.RequestArrival)
	})
	r.mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, req *http.Request) {
		r.handleForward(w, req, core.WorkerArrival)
	})
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
// job (strict parse, value/radius checks).
type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// handleForward is the router hot path: split the batch, pick each
// line's shard by cell ownership gated on health, forward the per-shard
// sub-batches concurrently, and reassemble the responses in input
// order. Nothing queues: an ineligible owner answers its lines
// immediately with a 503-class status and a retry hint.
func (r *Router) handleForward(w http.ResponseWriter, req *http.Request, kind core.EventKind) {
	r.ctr.calls.Add(1)
	body, err := readAllHint(http.MaxBytesReader(w, req.Body, serve.MaxBodyBytes), req.ContentLength)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.WireDecision{Status: serve.StatusError, Error: "reading body: " + err.Error()})
		return
	}
	lines := serve.SplitLines(body)
	if len(lines) == 0 {
		serve.WriteJSON(w, http.StatusBadRequest, serve.WireDecision{Status: serve.StatusError, Error: "empty body"})
		return
	}
	batch := len(lines) > 1 || strings.Contains(req.Header.Get("Content-Type"), "ndjson")
	r.ctr.lines.Add(int64(len(lines)))

	outs := make([][]byte, len(lines))
	select {
	case r.inflight <- struct{}{}:
		defer func() { <-r.inflight }()
	default:
		// Backpressure, not queueing: every line answers unavailable with
		// a hint, so well-behaved clients back off instead of piling on.
		r.ctr.busy.Add(int64(len(lines)))
		busy := encodeDecision(serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
			RetryAfterMs: r.retryHintMs(), Error: "router at max inflight"})
		for i := range outs {
			outs[i] = busy
		}
		r.reply(w, batch, outs)
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
	// callDeadline is the end-to-end budget for one client call,
	// covering transport retries and their backoff.
	const callDeadline = 15 * time.Second
	ctx, cancel := context.WithTimeout(req.Context(), callDeadline)
	defer cancel()
	if len(groups) == 1 { // the common case: no fan-out, no goroutine
		for sh, idxs := range groups {
			r.forwardGroup(ctx, sh, kind, lines, idxs, outs)
		}
	} else {
		var wg sync.WaitGroup
		for sh, idxs := range groups {
			wg.Add(1)
			go func(sh *shard, idxs []int) {
				defer wg.Done()
				r.forwardGroup(ctx, sh, kind, lines, idxs, outs)
			}(sh, idxs)
		}
		wg.Wait()
	}
	r.reply(w, batch, outs)
}

// dispatch picks each line's shard: its cell's rendezvous owner, or nil
// when the line was answered locally (unparseable, or the owner is
// dark). Eligibility (ready + breaker admission) is evaluated at most
// once per shard per client call, so a half-open breaker's single trial
// is one forwarded sub-batch, not one per line.
func (r *Router) dispatch(kind core.EventKind, lines [][]byte, outs [][]byte) []*shard {
	routes := make([]*shard, len(lines))
	elig := make(map[*shard]bool, len(r.names))
	for i, line := range lines {
		x, y, ok := scanPoint(line)
		if !ok {
			var pt wirePoint
			if err := json.Unmarshal(line, &pt); err != nil {
				r.ctr.badLines.Add(1)
				outs[i] = encodeDecision(serve.WireDecision{Status: serve.StatusError, Kind: serve.KindName(kind),
					Error: "bad event: " + err.Error()})
				continue
			}
			x, y = pt.X, pt.Y
		}
		sh := r.shards[cells.OwnerIndex(cells.Of(geo.Point{X: x, Y: y}, r.opts.CellSize), r.names)]
		ok, seen := elig[sh]
		if !seen {
			ok = sh.ready.Load() && sh.breaker.Allow(r.now())
			elig[sh] = ok
		}
		if !ok {
			r.refuse(kind, sh, &outs[i])
			continue
		}
		routes[i] = sh
	}
	return routes
}

// refuse answers one line locally: its owner is dark. The hint tells
// clients when the prober could plausibly have re-admitted the shard.
func (r *Router) refuse(kind core.EventKind, owner *shard, out *[]byte) {
	r.ctr.refused.Add(1)
	*out = encodeDecision(serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
		Shard: owner.name, RetryAfterMs: r.retryHintMs(),
		Error: "shard " + owner.name + " unavailable"})
}

// retryHintMs is the router-originated backoff hint: a couple of probe
// periods, floored at 100ms — roughly when a recovered shard would be
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

// shardRetry bounds transport-level retries per shard call: 2 tries
// with capped-jittered backoff between them. Only transport failures
// retry — shard 429/503 lines are backpressure and pass through to the
// client untouched.
var shardRetry = fault.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}

// forwardGroup posts one shard's sub-batch and scatters the per-line
// decisions back into outs at their original indices. Transport
// failures retry under shardRetry within the call deadline; a final
// failure answers every line unavailable. Shard backpressure lines
// (shed/draining/recovering) pass through with their own
// retry_after_ms.
func (r *Router) forwardGroup(ctx context.Context, sh *shard, kind core.EventKind, lines [][]byte, idxs []int, outs [][]byte) {
	total := 0
	for _, i := range idxs {
		total += len(lines[i]) + 1
	}
	payload := make([]byte, 0, total)
	for _, i := range idxs {
		payload = append(payload, lines[i]...)
		payload = append(payload, '\n')
	}
	n := int64(len(idxs))
	sh.lines.Add(n)
	r.met.Add(metrics.RouteForwards, n)

	var decs [][]byte
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.met.Add(metrics.RouteRetries, 1)
			sh.retries.Add(1)
			wait := r.backoff(attempt - 1)
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-time.After(wait):
			}
			if err == nil && !sh.breaker.Allow(r.now()) {
				err = fmt.Errorf("shard %s: breaker open", sh.name)
			}
			if err != nil {
				break
			}
		}
		decs, err = r.post(ctx, sh, kind, payload)
		if err == nil {
			sh.breaker.Success()
			break
		}
		sh.breaker.Failure(r.now())
		if attempt+1 >= shardRetry.MaxAttempts || ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		sh.errors.Add(n)
		failed := encodeDecision(serve.WireDecision{Status: serve.StatusUnavailable, Kind: serve.KindName(kind),
			Shard: sh.name, RetryAfterMs: r.retryHintMs(),
			Error: "shard call failed: " + err.Error()})
		for _, i := range idxs {
			outs[i] = failed
		}
		return
	}

	// Shard lines pass through verbatim (plus the shard stamp): the
	// router never re-encodes a decision it did not make, which keeps
	// the hot path to one cheap status sniff per line. All stamped
	// lines of the group share one arena: one allocation per call, not
	// one per line (out-of-capacity growth just strands old bytes, the
	// three-index sub-slices stay valid).
	arenaCap := len(idxs) * (len(sh.name) + 16)
	for _, d := range decs {
		arenaCap += len(d)
	}
	arena := make([]byte, 0, arenaCap)
	for k, i := range idxs {
		var line []byte
		if k < len(decs) {
			start := len(arena)
			arena = appendStamped(arena, decs[k], sh.name)
			line = arena[start:len(arena):len(arena)]
		} else {
			line = encodeDecision(serve.WireDecision{Status: serve.StatusError, Kind: serve.KindName(kind),
				Shard: sh.name, Error: "shard returned short response"})
		}
		switch lineStatus(line) {
		case serve.StatusOK, serve.StatusDuplicate:
			sh.ok.Add(1)
		case serve.StatusShed:
			sh.shed.Add(1)
		case serve.StatusDraining, serve.StatusRecovering, serve.StatusUnavailable:
			sh.unavailable.Add(1)
		}
		outs[i] = line
	}
}

// backoff draws the jittered capped-exponential wait for a retry.
func (r *Router) backoff(attempt int) time.Duration {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return shardRetry.Backoff(attempt, r.rng)
}

// callTimeout bounds a single shard HTTP call.
const callTimeout = 10 * time.Second

// post is one HTTP round trip to a shard ingest endpoint, bounded by
// callTimeout and by what is left of the client call's deadline. The
// shard always answers NDJSON per-line decisions (the router forces
// batch semantics).
func (r *Router) post(ctx context.Context, sh *shard, kind core.EventKind, payload []byte) ([][]byte, error) {
	budget := callTimeout
	if deadline, ok := ctx.Deadline(); ok {
		budget = min(budget, time.Until(deadline))
	}
	if budget <= 0 {
		return nil, context.DeadlineExceeded
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	url := sh.url + "/v1/requests"
	if kind == core.WorkerArrival {
		url = sh.url + "/v1/workers"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readAllHint(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s: %s: %s", sh.name, resp.Status, strings.TrimSpace(string(body)))
	}
	return serve.SplitLines(body), nil
}

// encodeDecision marshals a router-made decision once; every local
// answer (bad line, refusal, busy, transport failure) goes through
// here so the forwarding path never touches an encoder.
func encodeDecision(d serve.WireDecision) []byte {
	b, err := json.Marshal(d)
	if err != nil {
		// WireDecision is plain data; Marshal cannot fail on it.
		return []byte(`{"status":"error","error":"encode failed"}`)
	}
	return b
}

// appendStamped appends the response line to dst with `"shard":"<name>"`
// spliced in, without decoding it. Lines too short to be an object are
// appended untouched.
func appendStamped(dst, line []byte, name string) []byte {
	if len(line) < 2 || line[len(line)-1] != '}' {
		return append(dst, line...)
	}
	dst = append(dst, line[:len(line)-1]...)
	if len(line) > 2 { // non-empty object needs a comma
		dst = append(dst, ',')
	}
	dst = append(dst, `"shard":"`...)
	dst = append(dst, name...)
	return append(dst, '"', '}')
}

// scanPoint extracts the top-level "x" and "y" numbers from an event
// line without a full decode — dispatch needs only the location, and
// encoding/json on every line was the router's single largest CPU
// cost. The scan is string- and escape-aware and tracks bracket depth,
// so values that merely contain `"x":` cannot fool it; anything
// structurally surprising returns ok=false and dispatch falls back to
// the strict decoder. Missing coordinates default to 0, matching the
// lenient wirePoint decode.
func scanPoint(line []byte) (x, y float64, ok bool) {
	i, n := 0, len(line)
	skipWS := func() {
		for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' || line[i] == '\n') {
			i++
		}
	}
	// skipString advances past the string starting at line[i] == '"'.
	skipString := func() bool {
		for i++; i < n; i++ {
			switch line[i] {
			case '\\':
				i++
			case '"':
				i++
				return true
			}
		}
		return false
	}
	skipValue := func() bool {
		switch line[i] {
		case '"':
			return skipString()
		case '{', '[':
			depth := 0
			for i < n {
				switch line[i] {
				case '"':
					if !skipString() {
						return false
					}
					continue
				case '{', '[':
					depth++
				case '}', ']':
					depth--
					if depth == 0 {
						i++
						return true
					}
				}
				i++
			}
			return false
		default: // number, true, false, null
			for i < n && line[i] != ',' && line[i] != '}' && line[i] != ']' &&
				line[i] != ' ' && line[i] != '\t' {
				i++
			}
			return true
		}
	}
	skipWS()
	if i >= n || line[i] != '{' {
		return 0, 0, false
	}
	i++
	skipWS()
	if i < n && line[i] == '}' {
		return 0, 0, true
	}
	for {
		skipWS()
		if i >= n || line[i] != '"' {
			return 0, 0, false
		}
		keyStart := i + 1
		if !skipString() {
			return 0, 0, false
		}
		key := line[keyStart : i-1]
		skipWS()
		if i >= n || line[i] != ':' {
			return 0, 0, false
		}
		i++
		skipWS()
		if i >= n {
			return 0, 0, false
		}
		if len(key) == 1 && (key[0] == 'x' || key[0] == 'y') {
			vs := i
			for i < n && (line[i] == '-' || line[i] == '+' || line[i] == '.' ||
				line[i] == 'e' || line[i] == 'E' || (line[i] >= '0' && line[i] <= '9')) {
				i++
			}
			v, err := strconv.ParseFloat(string(line[vs:i]), 64)
			if err != nil {
				return 0, 0, false
			}
			if key[0] == 'x' {
				x = v
			} else {
				y = v
			}
		} else if !skipValue() {
			return 0, 0, false
		}
		skipWS()
		if i >= n {
			return 0, 0, false
		}
		switch line[i] {
		case ',':
			i++
		case '}':
			return x, y, true
		default:
			return 0, 0, false
		}
	}
}

// readAllHint reads rc to EOF, presizing from the declared content
// length when one is known (io.ReadAll's grow-and-copy cycles show up
// on the forward hot path).
func readAllHint(rc io.Reader, hint int64) ([]byte, error) {
	if hint > 0 && hint < serve.MaxBodyBytes {
		buf := bytes.NewBuffer(make([]byte, 0, hint+1))
		_, err := buf.ReadFrom(rc)
		return buf.Bytes(), err
	}
	return io.ReadAll(rc)
}

var statusPrefix = []byte(`{"status":"`)

// lineStatus reads a response line's status without a full decode.
// The serve encoder always emits Status as the first field, so the
// fast path is a prefix check; anything else falls back to Unmarshal.
func lineStatus(line []byte) string {
	if bytes.HasPrefix(line, statusPrefix) {
		rest := line[len(statusPrefix):]
		if end := bytes.IndexByte(rest, '"'); end >= 0 {
			return string(rest[:end])
		}
	}
	var d struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(line, &d); err != nil {
		return ""
	}
	return d.Status
}

// reply writes the reassembled decisions: NDJSON for batches, the
// shard-compatible status-coded single object otherwise. Shard lines
// are written back verbatim.
func (r *Router) reply(w http.ResponseWriter, batch bool, outs [][]byte) {
	if !batch {
		var out serve.WireDecision
		if err := json.Unmarshal(outs[0], &out); err != nil {
			out = serve.WireDecision{Status: serve.StatusError, Error: "bad shard response"}
			outs[0] = encodeDecision(out)
		}
		if out.RetryAfterMs > 0 {
			// The body hint is authoritative; the header is the same hint
			// rounded up via the shared helper, so the router's Retry-After
			// can never promise a shorter wait than retry_after_ms.
			w.Header().Set("Retry-After",
				strconv.FormatInt(serve.RetryAfterHeaderSeconds(out.RetryAfterMs), 10))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(serve.HTTPStatus(out.Status))
		_, _ = w.Write(outs[0])
		_, _ = w.Write([]byte{'\n'})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	total := 0
	for _, line := range outs {
		total += len(line) + 1
	}
	buf := make([]byte, 0, total)
	for _, line := range outs {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	_, _ = w.Write(buf)
}

// FleetHealth is the router's /healthz document.
type FleetHealth struct {
	Status      string `json:"status"` // "ok" while ≥1 shard is ready
	ReadyShards int    `json:"ready_shards"`
	TotalShards int    `json:"total_shards"`
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := FleetHealth{TotalShards: len(r.names)}
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
// accounting, the per-shard health/breaker table, and the shared
// collector counters (route_*, breaker_*).
type Snapshot struct {
	UptimeMs    int64          `json:"uptime_ms"`
	CellSize    float64        `json:"cell_size"`
	Calls       int64          `json:"calls"`
	Lines       int64          `json:"lines"`
	BadLines    int64          `json:"bad_lines"`
	Busy        int64          `json:"busy"`
	Refused     int64          `json:"refused"`
	ReadyShards int            `json:"ready_shards"`
	Shards      []ShardStatus  `json:"shards"`
	Metrics     metrics.Report `json:"metrics"`
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
		Metrics:  r.met.Snapshot(),
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
