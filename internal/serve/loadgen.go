package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/stats"
)

// LoadOptions configures one closed-loop load run against a serve
// endpoint.
type LoadOptions struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Stream is the workload to push, in arrival order.
	Stream *core.Stream
	// QPS paces dispatch at this many events per second (open-loop
	// arrival schedule); 0 pushes as fast as the connections allow.
	QPS float64
	// Conns is the number of concurrent HTTP connections (default
	// GOMAXPROCS, at least 2).
	Conns int
	// Batch groups up to this many consecutive same-kind events into one
	// NDJSON POST (default 1: one event per call).
	Batch int
	// Timeout bounds one HTTP call (default 30s).
	Timeout time.Duration
	// Retries is how many times a shed (429) line is retried, sleeping
	// the server's retry_after_ms hint between attempts. Replay runs
	// need retries: the sequencer cannot pass a gap left by a dropped
	// event. Default 0.
	Retries int
	// UnavailRetries is the separate budget for 503-class lines
	// (draining, unavailable). These are outages, not overload: behind
	// a router, a restarting shard's cells answer unavailable until it
	// has re-driven its WAL and listens again, so the budget that makes
	// sense is much larger than the shed one. Each retry honors the
	// server's retry_after_ms hint. Default 0 (drop on first 503).
	UnavailRetries int
	// Client overrides the HTTP client (tests inject the httptest one).
	Client *http.Client
}

// LoadReport is the client-side view of a load run: admission
// outcomes, decision totals and end-to-end call latency quantiles, in
// the shape EXPERIMENTS.md tables consume.
type LoadReport struct {
	Events      int     `json:"events"`
	Calls       int64   `json:"calls"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Unavailable int64   `json:"unavailable"` // 503-class responses: draining, owner not ready, post failed
	Retried     int64   `json:"retried"`
	Dropped     int64   `json:"dropped"` // out of retries (shed or unavailable budget)
	Failed      int64   `json:"failed"`  // transport or non-retryable errors
	Resumed     int64   `json:"resumed"` // duplicate: already applied before a restart
	Requests    int64   `json:"requests"`
	Matched     int64   `json:"matched"`
	Revenue     float64 `json:"revenue"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	MeanMs      float64 `json:"mean_ms"`
	WallMs      float64 `json:"wall_ms"`
	QPS         float64 `json:"qps"` // achieved event throughput
	ShedRate    float64 `json:"shed_rate"`
	// Shards is the per-shard slice of a fleet run, keyed by the shard
	// names a router stamps on response lines. Nil against a direct
	// comserve (no Shard stamps).
	Shards map[string]*ShardLoad `json:"shards,omitempty"`
}

// ShardLoad is one shard's share of a fleet load run, as seen from the
// client: admission outcomes, decisions, and the latency of the calls
// whose lines that shard answered.
type ShardLoad struct {
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Unavailable int64   `json:"unavailable"`
	Resumed     int64   `json:"resumed"`
	Matched     int64   `json:"matched"`
	Revenue     float64 `json:"revenue"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`

	lat *stats.Reservoir
}

// shard returns (creating on first sight) the per-shard bucket for a
// stamped response line; nil for unstamped lines. Callers hold mu.
func (r *LoadReport) shard(name string) *ShardLoad {
	if name == "" {
		return nil
	}
	if r.Shards == nil {
		r.Shards = make(map[string]*ShardLoad)
	}
	s := r.Shards[name]
	if s == nil {
		s = &ShardLoad{lat: stats.NewReservoir(1<<12, 1)}
		r.Shards[name] = s
	}
	return s
}

// batchJob is one POST: consecutive same-kind events sharing an
// endpoint.
type batchJob struct {
	kind core.EventKind
	evs  []WireEvent
	due  time.Time // dispatch not before this instant (QPS pacing)
	// retryFor is the status that queued this job for retry (StatusShed
	// or a 503-class status); it selects which retry budget pays for the
	// first re-post.
	retryFor string
}

// retryable reports whether a response status warrants a re-post, and
// which budget it draws from.
func retryable(status string) (shedClass bool, ok bool) {
	switch status {
	case StatusShed:
		return true, true
	case StatusDraining, StatusUnavailable:
		return false, true
	}
	return false, false
}

// RunLoad pushes the workload at the configured rate and collects the
// client-side report. Events are grouped into batches of consecutive
// same-kind arrivals (order within a batch is preserved by the server),
// paced on the QPS schedule, and posted over Conns concurrent
// connections. Shed lines are retried per Retries, sleeping the
// server's retry_after_ms hint.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if opts.Stream == nil || opts.Stream.Len() == 0 {
		return nil, fmt.Errorf("serve: load needs a non-empty stream")
	}
	if opts.Conns <= 0 {
		opts.Conns = runtime.GOMAXPROCS(0)
		if opts.Conns < 2 {
			opts.Conns = 2
		}
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	base := strings.TrimRight(opts.URL, "/")

	// Build the batch schedule: consecutive same-kind events share a
	// POST, each batch due at the arrival slot of its first event.
	events := opts.Stream.Events()
	start := time.Now()
	dueAt := func(i int) time.Time {
		if opts.QPS > 0 {
			return start.Add(time.Duration(float64(i) / opts.QPS * float64(time.Second)))
		}
		return start
	}
	var jobs []batchJob
	for i := 0; i < len(events); {
		kind := events[i].Kind
		j := i
		for j < len(events) && events[j].Kind == kind && j-i < opts.Batch {
			j++
		}
		job := batchJob{kind: kind, due: dueAt(i)}
		for _, ev := range events[i:j] {
			job.evs = append(job.evs, EventToWire(ev))
		}
		jobs = append(jobs, job)
		i = j
	}

	var (
		mu      sync.Mutex
		rep     LoadReport
		lat     = stats.NewReservoir(1<<14, 1)
		loadErr error
	)
	rep.Events = opts.Stream.Len()
	jobCh := make(chan batchJob)
	var wg sync.WaitGroup
	for c := 0; c < opts.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if wait := time.Until(job.due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				outs, rtt, err := postBatch(ctx, client, base, job)
				mu.Lock()
				rep.Calls++
				if err != nil {
					rep.Failed += int64(len(job.evs))
					if loadErr == nil {
						loadErr = err
					}
					mu.Unlock()
					continue
				}
				lat.Observe(rtt)
				observeShardRTT(&rep, outs, rtt)
				retry := accountLines(&rep, job, outs)
				mu.Unlock()
				// Retry shed/unavailable lines with fresh single-line batches.
				for _, rj := range retry {
					retryLine(ctx, client, base, rj, opts, &mu, &rep, lat)
				}
			}
		}()
	}
	for _, job := range jobs {
		select {
		case jobCh <- job:
		case <-ctx.Done():
			close(jobCh)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(jobCh)
	wg.Wait()

	wall := time.Since(start)
	rep.WallMs = float64(wall.Milliseconds())
	if wall > 0 {
		rep.QPS = float64(rep.Events) / wall.Seconds()
	}
	if n := rep.OK + rep.Shed; n > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(n)
	}
	qs := lat.Quantiles([]float64{0.5, 0.9, 0.99})
	rep.P50Ms = float64(qs[0]) / float64(time.Millisecond)
	rep.P90Ms = float64(qs[1]) / float64(time.Millisecond)
	rep.P99Ms = float64(qs[2]) / float64(time.Millisecond)
	rep.MaxMs = float64(lat.Max()) / float64(time.Millisecond)
	rep.MeanMs = float64(lat.Mean()) / float64(time.Millisecond)
	for _, sl := range rep.Shards {
		sq := sl.lat.Quantiles([]float64{0.5, 0.99})
		sl.P50Ms = float64(sq[0]) / float64(time.Millisecond)
		sl.P99Ms = float64(sq[1]) / float64(time.Millisecond)
		sl.MeanMs = float64(sl.lat.Mean()) / float64(time.Millisecond)
	}
	return &rep, loadErr
}

// accountLines books a batch's response lines and returns the
// retryable events (shed or 503-class) as fresh single-line jobs.
// Callers hold mu.
func accountLines(rep *LoadReport, job batchJob, outs []WireDecision) []batchJob {
	var retry []batchJob
	for i, out := range outs {
		sl := rep.shard(out.Shard)
		switch out.Status {
		case StatusOK:
			rep.OK++
			if sl != nil {
				sl.OK++
			}
			if out.Kind == "request" {
				rep.Requests++
				if out.Served {
					rep.Matched++
					rep.Revenue += out.Revenue
					if sl != nil {
						sl.Matched++
						sl.Revenue += out.Revenue
					}
				}
			}
		case StatusShed:
			rep.Shed++
			if sl != nil {
				sl.Shed++
			}
			if i < len(job.evs) {
				retry = append(retry, batchJob{kind: job.kind,
					evs:      []WireEvent{job.evs[i]},
					due:      retryDue(out.Status, out.RetryAfterMs),
					retryFor: out.Status})
			}
		case StatusDraining, StatusUnavailable:
			rep.Unavailable++
			if sl != nil {
				sl.Unavailable++
			}
			if i < len(job.evs) {
				retry = append(retry, batchJob{kind: job.kind,
					evs:      []WireEvent{job.evs[i]},
					due:      retryDue(out.Status, out.RetryAfterMs),
					retryFor: out.Status})
			}
		case StatusDuplicate:
			// The event was already applied — normal when re-pushing a
			// stream after a server restart recovered it from the WAL.
			// Counting it failed would make every resumed run look broken.
			rep.Resumed++
			if sl != nil {
				sl.Resumed++
			}
		default:
			rep.Failed++
		}
	}
	// Short responses (shouldn't happen) count as failures.
	if d := len(job.evs) - len(outs); d > 0 {
		rep.Failed += int64(d)
	}
	return retry
}

// retryDue computes the next attempt's dispatch instant from the
// server's hint. Unavailable-class responses without a hint still back
// off a little: hammering a dark shard's router refusal path at full
// speed helps nobody.
func retryDue(status string, hintMs int64) time.Time {
	wait := time.Duration(hintMs) * time.Millisecond
	if wait == 0 && status != StatusShed {
		wait = 25 * time.Millisecond
	}
	return time.Now().Add(wait)
}

// observeShardRTT attributes a call's round trip to a shard when every
// line of the response was answered by that one shard (the common case
// with per-line batches). Callers hold mu.
func observeShardRTT(rep *LoadReport, outs []WireDecision, rtt time.Duration) {
	if len(outs) == 0 || outs[0].Shard == "" {
		return
	}
	name := outs[0].Shard
	for _, out := range outs[1:] {
		if out.Shard != name {
			return
		}
	}
	rep.shard(name).lat.Observe(rtt)
}

// retryLine re-posts one retryable event until it settles or its class
// budget (shed vs unavailable) runs out. A retry that answers the
// other class switches budgets: an event a shard shed may next find
// its owner unavailable, and vice versa.
func retryLine(ctx context.Context, client *http.Client, base string, job batchJob, opts LoadOptions, mu *sync.Mutex, rep *LoadReport, lat *stats.Reservoir) {
	shedLeft, unavailLeft := opts.Retries, opts.UnavailRetries
	shedClass := job.retryFor == StatusShed
	for {
		if shedClass {
			if shedLeft <= 0 {
				mu.Lock()
				rep.Dropped++
				mu.Unlock()
				return
			}
			shedLeft--
		} else {
			if unavailLeft <= 0 {
				mu.Lock()
				rep.Dropped++
				mu.Unlock()
				return
			}
			unavailLeft--
		}
		if wait := time.Until(job.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		outs, rtt, err := postBatch(ctx, client, base, job)
		mu.Lock()
		rep.Calls++
		rep.Retried++
		if err != nil {
			rep.Failed++
			mu.Unlock()
			return
		}
		lat.Observe(rtt)
		observeShardRTT(rep, outs, rtt)
		if len(outs) == 0 {
			rep.Failed++
			mu.Unlock()
			return
		}
		out := outs[0]
		isShed, again := retryable(out.Status)
		if !again {
			accountLines(rep, job, outs)
			mu.Unlock()
			return
		}
		// Book the retryable response but keep the job here — the budget
		// loop owns it now.
		if isShed {
			rep.Shed++
		} else {
			rep.Unavailable++
		}
		if sl := rep.shard(out.Shard); sl != nil {
			if isShed {
				sl.Shed++
			} else {
				sl.Unavailable++
			}
		}
		mu.Unlock()
		shedClass = isShed
		job.due = retryDue(out.Status, out.RetryAfterMs)
	}
}

// postBatch POSTs one NDJSON batch and parses the per-line decisions.
// NDJSON content type forces batch semantics (HTTP 200 + per-line
// statuses) even for a single event.
func postBatch(ctx context.Context, client *http.Client, base string, job batchJob) ([]WireDecision, time.Duration, error) {
	var buf bytes.Buffer
	lw := newLineWriter(&buf)
	for i := range job.evs {
		lw.writeLine(&job.evs[i])
	}
	lw.flush()
	url := base + "/v1/requests"
	if job.kind == core.WorkerArrival {
		url = base + "/v1/workers"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	t0 := time.Now()
	resp, err := client.Do(req)
	rtt := time.Since(t0)
	if err != nil {
		return nil, rtt, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("serve: POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var outs []WireDecision
	for _, line := range SplitLines(body) {
		var d WireDecision
		if err := unmarshalStrict(line, &d); err != nil {
			return nil, rtt, fmt.Errorf("serve: bad response line %q: %w", line, err)
		}
		outs = append(outs, d)
	}
	return outs, rtt, nil
}
