package route

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/serve"
)

// ShardConfig names one backing comserve shard.
type ShardConfig struct {
	// Name is the shard's stable identity — the rendezvous-hash input,
	// so renaming a shard moves its cells. It also stamps response
	// lines (WireDecision.Shard).
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:9001".
	URL string
}

// shard is the router's live state for one backing server: its
// readiness bit and the per-shard accounting surfaced at /v1/metrics.
type shard struct {
	name string
	url  string

	// ready has one writer, the shard's prober: it is true exactly when
	// the last /healthz answered 200.
	ready atomic.Bool

	// Accounting (atomic: bumped from forward goroutines).
	lines       atomic.Int64 // event lines forwarded
	ok          atomic.Int64
	shed        atomic.Int64 // 429-class lines the shard answered
	unavailable atomic.Int64 // 503-class lines the shard answered (draining)
	errors      atomic.Int64 // lines whose post failed

	mu          sync.Mutex
	lastStatus  string // last probe outcome: ok/draining/not-ready/unreachable
	lastErr     string
	lastProbeAt time.Time
}

func (sh *shard) setProbe(status, errText string) {
	sh.mu.Lock()
	sh.lastStatus, sh.lastErr, sh.lastProbeAt = status, errText, time.Now()
	sh.mu.Unlock()
}

// ShardStatus is the per-shard section of the router's /v1/metrics
// document.
type ShardStatus struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Ready       bool   `json:"ready"`
	Lines       int64  `json:"lines"`
	OK          int64  `json:"ok"`
	Shed        int64  `json:"shed"`
	Unavailable int64  `json:"unavailable"`
	Errors      int64  `json:"errors"`
	// Hedges and Retries are inert, always 0: kept only because the
	// frozen bench/serve.go reads them; the next benchmark PR deletes them.
	Hedges          int64  `json:"hedges"`
	Retries         int64  `json:"retries"`
	LastProbeStatus string `json:"last_probe_status,omitempty"`
	LastError       string `json:"last_error,omitempty"`
	LastProbeAgoMs  int64  `json:"last_probe_ago_ms,omitempty"`
}

func (sh *shard) status() ShardStatus {
	st := ShardStatus{
		Name:        sh.name,
		URL:         sh.url,
		Ready:       sh.ready.Load(),
		Lines:       sh.lines.Load(),
		OK:          sh.ok.Load(),
		Shed:        sh.shed.Load(),
		Unavailable: sh.unavailable.Load(),
		Errors:      sh.errors.Load(),
	}
	sh.mu.Lock()
	st.LastProbeStatus, st.LastError = sh.lastStatus, sh.lastErr
	if !sh.lastProbeAt.IsZero() {
		st.LastProbeAgoMs = time.Since(sh.lastProbeAt).Milliseconds()
	}
	sh.mu.Unlock()
	return st
}

// probeLoop drives one shard's health checks until the router closes.
func (r *Router) probeLoop(sh *shard) {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		r.probe(sh)
		select {
		case <-r.done:
			return
		case <-t.C:
		}
	}
}

// probeTimeout bounds one health check.
const probeTimeout = 500 * time.Millisecond

// probe runs one health check and stores its outcome in sh.ready: the
// shard is ready exactly when /healthz answers 200. A shard that is not
// listening — killed, or restarted and still re-driving its WAL, since
// comserve listens only once recovery is done — fails the connect and
// is not ready. Nothing else holds a shard out, so the first 200 after
// a restart re-admits it.
func (r *Router) probe(sh *shard) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/healthz", nil)
	var resp *http.Response
	if err == nil {
		resp, err = r.client.Do(req)
	}
	if err != nil {
		sh.ready.Store(false)
		sh.setProbe("unreachable", err.Error())
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()

	var hs serve.HealthStatus
	status := "ok"
	if json.Unmarshal(body, &hs) == nil && hs.Status != "" {
		status = hs.Status
	} else if resp.StatusCode != http.StatusOK {
		status = "not-ready"
	}
	sh.ready.Store(resp.StatusCode == http.StatusOK)
	sh.setProbe(status, "")
}
