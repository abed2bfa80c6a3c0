package route

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
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

// shard is the router's live state for one backing server: the circuit
// breaker guarding calls to it, the probed readiness flag, and the
// per-shard accounting surfaced at /v1/metrics.
type shard struct {
	name string
	url  string

	breaker *fault.Breaker
	ready   atomic.Bool

	// Accounting (atomic: bumped from forward goroutines and probers).
	lines       atomic.Int64 // event lines forwarded (attempted)
	ok          atomic.Int64
	shed        atomic.Int64 // 429-class lines the shard answered
	unavailable atomic.Int64 // 503-class lines (draining/recovering)
	errors      atomic.Int64 // transport failures after retries
	retries     atomic.Int64

	mu          sync.Mutex
	lastStatus  string // last probe outcome: ok/recovering/draining/failed/unreachable
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
	Name             string `json:"name"`
	URL              string `json:"url"`
	Ready            bool   `json:"ready"`
	Breaker          string `json:"breaker"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Lines            int64  `json:"lines"`
	OK               int64  `json:"ok"`
	Shed             int64  `json:"shed"`
	Unavailable      int64  `json:"unavailable"`
	Errors           int64  `json:"errors"`
	Retries          int64  `json:"retries"`
	// Hedges is inert, always 0: kept only because the frozen
	// bench/serve.go reads it; the next benchmark PR deletes it.
	Hedges          int64  `json:"hedges"`
	LastProbeStatus string `json:"last_probe_status,omitempty"`
	LastError       string `json:"last_error,omitempty"`
	LastProbeAgoMs  int64  `json:"last_probe_ago_ms,omitempty"`
}

func (sh *shard) status() ShardStatus {
	state, fails := sh.breaker.Stats()
	st := ShardStatus{
		Name:             sh.name,
		URL:              sh.url,
		Ready:            sh.ready.Load(),
		Breaker:          state.String(),
		ConsecutiveFails: fails,
		Lines:            sh.lines.Load(),
		OK:               sh.ok.Load(),
		Shed:             sh.shed.Load(),
		Unavailable:      sh.unavailable.Load(),
		Errors:           sh.errors.Load(),
		Retries:          sh.retries.Load(),
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
// Probe outcomes and forward outcomes feed the same breaker: a SIGKILL
// surfaces as connection failures on both paths, so the breaker opens
// within min(probe interval × threshold, in-flight failure volume),
// and the cooldown's half-open trial is usually a probe — cheap, and
// it re-admits the shard the moment readiness flips after WAL replay.
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

// probe runs one health check. Any HTTP response — 200 ok or 503
// recovering/draining — is a transport success (the shard is live);
// readiness comes from the status. Only connect/timeout failures count
// against the breaker.
func (r *Router) probe(sh *shard) {
	if !sh.breaker.Allow(r.now()) {
		// Open and cooling: the shard stays not-ready; once the cooldown
		// elapses Allow admits this probe as the half-open trial.
		sh.ready.Store(false)
		sh.setProbe("breaker-open", "")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		sh.breaker.Failure(r.now())
		sh.ready.Store(false)
		sh.setProbe("unreachable", err.Error())
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		sh.breaker.Failure(r.now())
		sh.ready.Store(false)
		sh.setProbe("unreachable", err.Error())
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	sh.breaker.Success()

	var hs serve.HealthStatus
	status := "ok"
	if json.Unmarshal(body, &hs) == nil && hs.Status != "" {
		status = hs.Status
	} else if resp.StatusCode != http.StatusOK {
		status = "not-ready"
	}
	sh.ready.Store(resp.StatusCode == http.StatusOK)
	sh.setProbe(status, hs.Error)
}

// now is the breaker clock: milliseconds since the router started, the
// same stream-time unit (core.Time) the engine-side breakers use.
func (r *Router) now() core.Time {
	return core.Time(time.Since(r.started).Milliseconds())
}
