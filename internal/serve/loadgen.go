package serve

import (
	"bytes"
	"context"
	"fmt"
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
// stamped response line. Callers hold the ledger's lock.
func (r *LoadReport) shard(name string) *ShardLoad {
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
	// retryFor is the status that queued this single-line job for a
	// re-post (StatusShed or a 503-class status); empty on a first post.
	retryFor string
}

// loadRun is one RunLoad's ledger of answered lines. mu guards the
// report, the call latencies and err, the first transport error of a
// first post.
type loadRun struct {
	client *http.Client
	base   string

	mu        sync.Mutex
	rep       LoadReport
	lat       *stats.Reservoir
	err       error
	unstamped ShardLoad // books the lines no shard stamped, and is never read
}

// RunLoad pushes the workload at the configured rate and collects the
// client-side report. Events are grouped into batches of consecutive
// same-kind arrivals (order within a batch is preserved by the server),
// paced on the QPS schedule, and posted over Conns concurrent
// connections. Shed and 503-class lines are re-posted per Retries and
// UnavailRetries, sleeping the server's retry_after_ms hint.
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

	run := &loadRun{client: client, base: strings.TrimRight(opts.URL, "/"),
		lat: stats.NewReservoir(1<<14, 1)}
	run.rep.Events = opts.Stream.Len()
	fresh := [2]int{opts.Retries, opts.UnavailRetries}
	jobCh := make(chan batchJob)
	var wg sync.WaitGroup
	for c := 0; c < opts.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				run.step(ctx, job, fresh)
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

	rep := &run.rep
	wall := time.Since(start)
	rep.WallMs = float64(wall.Milliseconds())
	if wall > 0 {
		rep.QPS = float64(rep.Events) / wall.Seconds()
	}
	if n := rep.OK + rep.Shed; n > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(n)
	}
	qs := run.lat.Quantiles([]float64{0.5, 0.9, 0.99})
	rep.P50Ms = float64(qs[0]) / float64(time.Millisecond)
	rep.P90Ms = float64(qs[1]) / float64(time.Millisecond)
	rep.P99Ms = float64(qs[2]) / float64(time.Millisecond)
	rep.MaxMs = float64(run.lat.Max()) / float64(time.Millisecond)
	rep.MeanMs = float64(run.lat.Mean()) / float64(time.Millisecond)
	for _, sl := range rep.Shards {
		sq := sl.lat.Quantiles([]float64{0.5, 0.99})
		sl.P50Ms = float64(sq[0]) / float64(time.Millisecond)
		sl.P99Ms = float64(sq[1]) / float64(time.Millisecond)
		sl.MeanMs = float64(sl.lat.Mean()) / float64(time.Millisecond)
	}
	return rep, run.err
}

// step is the ledger's one step: wait until job is due, post it and
// book the answer, then settle each retryable line alone, depth first.
// In live mode the server stamps an arrival at admission, so the order
// of the re-posts is a matching input. left is what a line has left to
// spend on re-posts: left[0] for shed answers (Retries), left[1] for
// 503-class ones (UnavailRetries). A re-post answered with the other
// class draws on that class's budget next.
func (l *loadRun) step(ctx context.Context, job batchJob, left [2]int) {
	if wait := time.Until(job.due); wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return
		}
	}
	for _, rj := range l.post(ctx, job) {
		class := 1
		if rj.retryFor == StatusShed {
			class = 0
		}
		if left[class] <= 0 {
			l.mu.Lock()
			l.rep.Dropped++
			l.mu.Unlock()
			continue
		}
		left := left // each line spends its own copy
		left[class]--
		l.step(ctx, rj, left)
	}
}

// post sends job once and books the answer: the call, its round trip,
// and every line, overall and for the shard that answered it. A
// transport error or a short reply fails the lines left unanswered. It
// returns the retryable lines (shed or 503-class) as single-line jobs,
// each due when its answer's hint says.
func (l *loadRun) post(ctx context.Context, job batchJob) []batchJob {
	outs, rtt, err := postBatch(ctx, l.client, l.base, job)
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &l.rep
	rep.Calls++
	if job.retryFor != "" {
		rep.Retried++
	}
	if err != nil {
		rep.Failed += int64(len(job.evs))
		if l.err == nil && job.retryFor == "" {
			l.err = err
		}
		return nil
	}
	l.lat.Observe(rtt)
	var retry []batchJob
	whole := len(outs) > 0 // every line answered by outs[0]'s shard
	for i, out := range outs {
		whole = whole && out.Shard == outs[0].Shard
		sl := &l.unstamped
		if out.Shard != "" {
			sl = rep.shard(out.Shard)
		}
		switch out.Status {
		case StatusOK:
			rep.OK++
			sl.OK++
			if out.Kind == "request" {
				rep.Requests++
				if out.Served {
					rep.Matched++
					rep.Revenue += out.Revenue
					sl.Matched++
					sl.Revenue += out.Revenue
				}
			}
			continue
		case StatusDuplicate:
			// The event was already applied — normal when re-pushing a
			// stream after a server restart recovered it from the WAL.
			// Counting it failed would make every resumed run look broken.
			rep.Resumed++
			sl.Resumed++
			continue
		case StatusShed:
			rep.Shed++
			sl.Shed++
		case StatusDraining, StatusUnavailable:
			rep.Unavailable++
			sl.Unavailable++
		default:
			rep.Failed++
			continue
		}
		if i < len(job.evs) {
			// A 503-class answer without a hint still backs off a little:
			// hammering a dark shard's refusal path at full speed helps
			// nobody.
			wait := time.Duration(out.RetryAfterMs) * time.Millisecond
			if wait == 0 && out.Status != StatusShed {
				wait = 25 * time.Millisecond
			}
			retry = append(retry, batchJob{kind: job.kind, evs: job.evs[i : i+1],
				due: time.Now().Add(wait), retryFor: out.Status})
		}
	}
	if d := len(job.evs) - len(outs); d > 0 {
		rep.Failed += int64(d)
	}
	// A call's round trip goes to a shard only when that shard answered
	// every line.
	if whole && outs[0].Shard != "" {
		rep.shard(outs[0].Shard).lat.Observe(rtt)
	}
	return retry
}

// postBatch encodes one batch as NDJSON, posts it through Post and
// strictly decodes the per-line decisions, timing the round trip.
func postBatch(ctx context.Context, client *http.Client, base string, job batchJob) ([]WireDecision, time.Duration, error) {
	var buf bytes.Buffer
	lw := newLineWriter(&buf)
	for i := range job.evs {
		lw.writeLine(&job.evs[i])
	}
	lw.flush()
	t0 := time.Now()
	lines, err := Post(ctx, client, base, job.kind, buf.Bytes())
	rtt := time.Since(t0)
	if err != nil {
		return nil, rtt, err
	}
	outs := make([]WireDecision, len(lines))
	for i, line := range lines {
		if err := unmarshalStrict(line, &outs[i]); err != nil {
			return nil, rtt, fmt.Errorf("serve: bad response line %q: %w", line, err)
		}
	}
	return outs, rtt, nil
}
