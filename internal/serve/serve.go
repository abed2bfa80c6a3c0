// Package serve is the live matching service of the reproduction: an
// HTTP ingestion layer that drives the deterministic matching engine
// (internal/platform.Engine) from socket traffic instead of an
// in-memory stream slice — the ROADMAP's "serves heavy traffic" north
// star, and the deployment shape of real online task assignment, where
// requests and workers are open-loop arrival streams.
//
// Architecture: HTTP handlers admit events through a token bucket and
// a bounded ingest queue (admission control; overload answers 429 with
// Retry-After instead of queueing without bound), and a single
// sequencer goroutine — the wall-clock→virtual-time bridge — stamps
// each admitted arrival with a monotone virtual tick and feeds it to
// the engine, returning match decisions synchronously to the waiting
// handler. In replay mode the sequencer instead holds arrivals until
// their recorded predecessors have been fed, so a recorded stream
// pushed over HTTP — concurrently, in any order — reproduces the
// offline SimulateContext result bit for bit.
//
// Shutdown is a graceful drain: new arrivals get 503, events already
// admitted to the queue are answered 503 with a drain reason, the
// decision in flight completes, and Close returns the engine's final
// Result.
package serve

import (
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/trace"
	"crossmatch/internal/wal"
)

// liveIDBase is where server-assigned IDs start in live mode, far from
// the small explicit IDs clients typically send.
const liveIDBase = 1 << 30

// Options configures a Server. Nine of its settings are the engine's
// platform.Spec (see Options.spec), which New resolves once, builds the
// engine from and fingerprints the log with.
type Options struct {
	// Algorithm names the online matcher (platform.Alg*); default DemCOM.
	Algorithm string
	// Seed roots the engine's randomness, exactly like SimulateContext.
	Seed int64
	// Platforms is the live-mode platform set (default {1, 2}); replay
	// mode derives it from the recorded stream.
	Platforms []core.PlatformID
	// MaxValue is the a-priori max request value Umax the threshold
	// algorithms (RamCOM, Greedy-RT) assume known; required for them in
	// live mode, derived from the recorded stream in replay mode.
	MaxValue float64
	// Replay, when non-nil, switches to deterministic replay: incoming
	// events name events of this recorded stream by ID, the sequencer
	// feeds them in the recorded order regardless of HTTP delivery
	// order, and the recorded arrival ticks are authoritative — the
	// final Result is bit-identical to SimulateContext on the stream.
	Replay *core.Stream
	// QueueCap bounds the ingest queue (default 1024). A full queue
	// sheds with 429.
	QueueCap int
	// Rate is the token-bucket admission rate in events/second; 0
	// disables rate limiting. Burst is the bucket size (default Rate,
	// at least 1).
	Rate  float64
	Burst int
	// Deadline bounds how long a handler waits for its decision
	// (default 10s). An expired wait answers 504; the event itself
	// stays in the sequencer's order.
	Deadline time.Duration
	// ProcessDelay adds an artificial per-event delay in the sequencer —
	// a capacity knob for overload experiments (capacity ≈ 1/delay) and
	// the shutdown tests' way of keeping the queue busy.
	ProcessDelay time.Duration
	// ServiceTicks (not negative), DisableCoop and Faults are the spec's
	// fields of the same names (see platform.Spec).
	ServiceTicks core.Time
	DisableCoop  bool
	Faults       *fault.Plan
	// Window and BatchDeadline are the spec's BatchCOM window geometry,
	// in virtual ticks (one tick is one wall-clock millisecond in live
	// mode). BatchDeadline caps the engine's buffering of one request,
	// not the HTTP handler's wait (that is Deadline).
	Window        core.Time
	BatchDeadline core.Time
	// Metrics receives the run once, folded in by Close: the engine's
	// counters and latencies and the log's wal_* counters (/v1/metrics
	// folds them into a copy before). Created internally when nil.
	Metrics *metrics.Collector
	// Tracer, when non-nil, records per-request decision spans; they
	// export at /v1/trace as JSONL.
	Tracer *trace.Tracer

	// WALDir, when non-empty, turns on durability: every admitted event
	// is appended to a write-ahead log in this directory before the
	// engine sees it, with checkpoint records in the same log, and a
	// restart with the same directory recovers the exact pre-crash state
	// by re-driving the log (see internal/wal) inside New, before it
	// returns; a recovery that fails is New's error. Empty keeps the
	// zero-durability hot path byte-for-byte unchanged.
	WALDir string
	// FsyncBatch fsyncs the log every N appends (<1 → every append).
	// Larger batches trade the durability of the last <N events for
	// sustained throughput.
	FsyncBatch int
}

type eventKey struct {
	kind core.EventKind
	id   int64
}

// ingest is one admitted arrival travelling handler → sequencer; the
// buffered done channel carries the decision back (buffered so a
// handler that gave up on its deadline never blocks the sequencer).
type ingest struct {
	ev   core.Event
	seq  int // replay order index; -1 in live mode
	done chan WireDecision
	// kind/id mirror ev's wire identity, frozen at admission. After the
	// item is enqueued, ev belongs to the sequencer (stamp rewrites its
	// time in place), so a handler that outlives its deadline must
	// build the 504 line from these copies, never from ev.
	kind core.EventKind
	id   int64
}

// Server is the live matching service. Create with New (which starts
// the sequencer), expose Handler over any listener, and stop with
// BeginDrain + Close.
type Server struct {
	opts Options
	mux  *http.ServeMux
	eng  *platform.Engine

	queue  chan *ingest
	qmu    sync.RWMutex // guards queue close vs concurrent enqueues
	bucket *tokenBucket

	// spec is the engine configuration New resolved from the options,
	// and fp its log fingerprint (set with the replay state).
	// platformOK indexes spec.Platforms for live admission, which rejects
	// events naming any other platform before they can reach the WAL or
	// the sequencer (an unguarded unknown ID is a poison event: logged,
	// it would fail recovery on every restart). platformList is the
	// ready-made error text.
	spec         platform.Spec
	fp           wal.Fingerprint
	platformOK   map[core.PlatformID]bool
	platformList string

	draining atomic.Bool

	seqDone   chan struct{}
	snapshots chan chan MetricsSnapshot // Snapshot's requests to the sequencer
	started   time.Time
	vbase     int64 // virtual-clock origin: 0, or the resumed high-water mark
	vlast     int64 // sequencer-owned virtual clock high-water mark

	// replay state
	replayIdx map[eventKey]int
	replayEvs []core.Event
	delivered []atomic.Bool
	cursor    int // sequencer-owned recorded-order cursor (replay mode)

	// waiters maps a request to the ingest whose decision is still
	// owed: registered by process before the engine call, answered by
	// onDecision when the engine books the decision — inside that call,
	// or at a later window flush. The key is the request the engine
	// decides, not its ID: two posts of one ID (on two platforms, or one
	// the engine refuses) never share a waiter. Owned by the sequencer
	// goroutine: decisions only happen inside engine calls made by the
	// sequencer or the pre-sequencer recovery re-drive.
	waiters map[*core.Request]*ingest

	// durability (nil wal == zero-durability path, bit-identical to the
	// pre-WAL server)
	wal          *wal.Log
	walBuf       []byte // reused record-encode buffer; sequencer goroutine only
	applied      int64  // event and tick records applied, recovered ones first; sequencer-owned
	checkpointed int64  // applied at the last checkpoint record; sequencer-owned
	checkpoints  int64  // checkpoint records this process wrote; sequencer-owned
	rec          RecoveryInfo

	// live ID allocation
	nextReqID    atomic.Int64
	nextWorkerID atomic.Int64

	ctr counters

	closeOnce sync.Once
	result    *platform.Result
	closeErr  error
}

// counters are the server-side (pre-engine) accounting exposed at
// /v1/metrics: admission outcomes and errors.
type counters struct {
	applied      atomic.Int64 // events the engine has processed
	requestsSeen atomic.Int64 // requests admitted to the queue
	workersSeen  atomic.Int64 // workers admitted to the queue
	shedRate     atomic.Int64 // 429: token bucket empty
	shedQueue    atomic.Int64 // 429: ingest queue full
	drained      atomic.Int64 // 503: rejected during drain
	deadlineMiss atomic.Int64 // 504: handler gave up waiting
	badEvents    atomic.Int64 // malformed / unknown / duplicate
	engineErrors atomic.Int64
	walErrors    atomic.Int64 // append/checkpoint failures (event NOT applied)
}

// New builds the service, re-drives the write-ahead log when WALDir is
// set, and starts its sequencer goroutine. A recovery that fails is an
// error, and nothing is left running. Every successfully constructed
// Server must be stopped with Close, even on error paths, or the
// sequencer leaks.
func New(opts Options) (*Server, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = platform.AlgDemCOM
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 1024
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 10 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.New()
	}
	if !(opts.Rate >= 0) || math.IsInf(opts.Rate, 0) {
		return nil, fmt.Errorf("serve: rate %v events/s must be finite and not negative (0 = unlimited)", opts.Rate)
	}

	spec, err := opts.spec().Resolve()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	factory, cfg, err := spec.Lower()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cfg.Metrics, cfg.Trace = opts.Metrics, opts.Tracer
	eng, err := platform.NewEngine(spec.Platforms, factory, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	s := &Server{
		opts:      opts,
		eng:       eng,
		queue:     make(chan *ingest, opts.QueueCap),
		bucket:    newTokenBucket(opts.Rate, opts.Burst),
		seqDone:   make(chan struct{}),
		snapshots: make(chan chan MetricsSnapshot),
		started:   time.Now(),
		spec:      spec,
	}
	s.platformOK = make(map[core.PlatformID]bool, len(spec.Platforms))
	for _, pid := range spec.Platforms {
		s.platformOK[pid] = true
	}
	s.platformList = fmt.Sprint(spec.Platforms)
	s.nextReqID.Store(liveIDBase)
	s.nextWorkerID.Store(liveIDBase)
	s.waiters = make(map[*core.Request]*ingest)
	eng.SetDecisionHandler(s.onDecision)

	if opts.Replay != nil {
		evs := opts.Replay.Events()
		s.replayEvs = evs
		s.replayIdx = make(map[eventKey]int, len(evs))
		s.delivered = make([]atomic.Bool, len(evs))
		for i, ev := range evs {
			switch ev.Kind {
			case core.WorkerArrival:
				s.replayIdx[eventKey{ev.Kind, ev.Worker.ID}] = i
			case core.RequestArrival:
				s.replayIdx[eventKey{ev.Kind, ev.Request.ID}] = i
			}
		}
		// Recycled-worker IDs must continue the recorded stream's ID
		// space for bit-parity with the offline run.
		if err := eng.SetRecycleBase(opts.Replay.MaxWorkerID()); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	s.fp = fingerprint(spec, len(s.replayEvs))

	if opts.WALDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	s.mux = http.NewServeMux()
	HandleIngest(s.mux, s.handleIngest)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	go s.sequence()
	return s, nil
}

// Handler returns the service's HTTP handler, ready to mount on any
// listener (net/http server, httptest, ...).
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain starts graceful shutdown: from now on new arrivals are
// refused with 503, events already queued are answered 503 with a
// drain reason, and the decision in flight completes. Idempotent.
func (s *Server) BeginDrain() {
	s.qmu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.qmu.Unlock()
}

// Close drains the server (if BeginDrain has not run yet), waits for
// the sequencer to stop, and finishes the engine, returning the final
// accumulated Result. Safe to call more than once; later calls return
// the cached result.
//
// Windowed algorithms: a window still open at close is flushed by the
// engine finish, so its decisions count in the returned Result — but
// that flush happens after the final checkpoint is written and is
// never logged. Recovery therefore RE-BUFFERS such requests: the log
// re-drive rebuilds the open window exactly as it stood, the digest
// verifies against the pre-flush counters, and the recovered window
// flushes on the next tick or arrival. The close-time flush is an
// artifact of finishing; the durable truth is the buffered window.
func (s *Server) Close() (*platform.Result, error) {
	s.BeginDrain()
	<-s.seqDone
	s.closeOnce.Do(func() {
		// The sequencer has stopped, so its WAL state is safe to touch:
		// write the final checkpoint (unless the last one already covers
		// every record), release the log and fold its counts into the
		// collector, then finish the engine, which folds the run.
		if s.wal != nil {
			if s.applied != s.checkpointed {
				if err := s.checkpoint(); err != nil {
					s.ctr.walErrors.Add(1)
				}
			}
			if err := s.wal.Close(); err != nil {
				s.ctr.walErrors.Add(1)
			}
			s.foldWAL(s.opts.Metrics)
		}
		s.result, s.closeErr = s.eng.Finish()
	})
	return s.result, s.closeErr
}

// handleIngest serves POST /v1/requests and /v1/workers: a single JSON
// object, or an NDJSON batch (one event per line). Batch responses are
// always 200 with one NDJSON decision line per input line; single
// responses carry the outcome as the HTTP status code too.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, kind core.EventKind) {
	lines, batch, ok := ReadIngest(w, r)
	if !ok {
		return
	}

	// Admission pass: every line is admitted (or refused) in input
	// order before any decision is awaited, so one batch's lines enter
	// the sequencer contiguously and FIFO.
	items := make([]*ingest, len(lines))
	outs := make([]WireDecision, len(lines))
	for i, line := range lines {
		items[i], outs[i] = s.admit(kind, line)
	}

	// Collection pass: wait for the admitted decisions under one shared
	// batch deadline.
	s.collectDecisions(items, outs)
	WriteDecisions(w, batch, outs)
}

// collectDecisions waits for each admitted item's decision under one
// shared batch deadline. A decision that is already buffered must win
// over an expired timer: both channels being ready makes Go's select
// pick pseudo-randomly, which used to misreport computed decisions as
// 504s for roughly half the lines after the first miss (the old code
// kept the fired timer "ready" via Reset(0)). The loop therefore polls
// it.done non-blockingly first, tracks expiry in a plain bool instead
// of a hot timer, and after expiry gives every remaining item one last
// non-blocking chance before declaring a miss. Missed or not, the
// event stays in the sequencer's order.
func (s *Server) collectDecisions(items []*ingest, outs []WireDecision) {
	deadline := time.NewTimer(s.opts.Deadline)
	defer deadline.Stop()
	expired := false
	for i, it := range items {
		if it == nil {
			continue
		}
		select {
		case outs[i] = <-it.done:
			continue
		default:
		}
		if !expired {
			select {
			case outs[i] = <-it.done:
				continue
			case <-deadline.C:
				expired = true
			}
		}
		// Deadline passed while this item was pending: final poll, then
		// a miss.
		select {
		case outs[i] = <-it.done:
		default:
			s.ctr.deadlineMiss.Add(1)
			// it.ev is the sequencer's now (stamp may be rewriting its
			// time concurrently); the frozen admission-time copies carry
			// the identity this line needs.
			outs[i] = WireDecision{Status: StatusDeadline, Kind: KindName(it.kind), ID: it.id,
				Error: "decision did not return within the deadline; the event is still sequenced"}
		}
	}
}

// admit runs one line through admission control. It returns the queued
// ingest (nil when refused) and, for refusals, the ready response.
func (s *Server) admit(kind core.EventKind, line []byte) (*ingest, WireDecision) {
	var we WireEvent
	if err := unmarshalStrict(line, &we); err != nil {
		s.ctr.badEvents.Add(1)
		return nil, WireDecision{Status: StatusError, Kind: KindName(kind), Error: "bad event: " + err.Error()}
	}

	it := &ingest{seq: -1, done: make(chan WireDecision, 1)}
	admitted := false
	if s.replayIdx != nil {
		idx, ok := s.replayIdx[eventKey{kind, we.ID}]
		if !ok {
			s.ctr.badEvents.Add(1)
			return nil, WireDecision{Status: StatusUnknown, Kind: KindName(kind), ID: we.ID,
				Error: "no such event in the recorded stream"}
		}
		if s.delivered[idx].Swap(true) {
			s.ctr.badEvents.Add(1)
			return nil, WireDecision{Status: StatusDuplicate, Kind: KindName(kind), ID: we.ID,
				Error: "event already delivered"}
		}
		it.ev, it.seq = s.replayEvs[idx], idx
		// A refusal below (shed, drain) must not burn the delivered bit,
		// or the retry would bounce off "duplicate" and the replay cursor
		// could never pass this event.
		defer func() {
			if !admitted {
				s.delivered[idx].Store(false)
			}
		}()
	} else {
		if !s.platformOK[core.PlatformID(we.Platform)] {
			s.ctr.badEvents.Add(1)
			return nil, WireDecision{Status: StatusError, Kind: KindName(kind), ID: we.ID,
				Error: fmt.Sprintf("unknown platform %d; this server serves %s", we.Platform, s.platformList)}
		}
		ev, err := we.toEvent(kind)
		if err != nil {
			s.ctr.badEvents.Add(1)
			return nil, WireDecision{Status: StatusError, Kind: KindName(kind), ID: we.ID, Error: err.Error()}
		}
		s.assignID(ev)
		it.ev = ev
	}
	it.kind, it.id = it.ev.Kind, eventID(it.ev)

	if ok, wait := s.bucket.take(); !ok {
		s.ctr.shedRate.Add(1)
		return nil, WireDecision{Status: StatusShed, Kind: KindName(kind), ID: we.ID,
			RetryAfterMs: RetryAfterWireMs(wait), Error: "rate limit"}
	}

	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining.Load() {
		s.ctr.drained.Add(1)
		return nil, WireDecision{Status: StatusDraining, Kind: KindName(kind), ID: we.ID,
			Error: "server draining"}
	}
	select {
	case s.queue <- it:
		admitted = true
		if kind == core.RequestArrival {
			s.ctr.requestsSeen.Add(1)
		} else {
			s.ctr.workersSeen.Add(1)
		}
		return it, WireDecision{}
	default:
		s.ctr.shedQueue.Add(1)
		return nil, WireDecision{Status: StatusShed, Kind: KindName(kind), ID: we.ID,
			RetryAfterMs: RetryAfterWireMs(s.queueRetryHint()), Error: "ingest queue full"}
	}
}

// queueRetryHint estimates how long a full queue takes to make room:
// the queue depth over the admission rate, or a small constant when
// unlimited.
func (s *Server) queueRetryHint() time.Duration {
	if s.bucket != nil {
		return time.Duration(float64(s.opts.QueueCap) / s.bucket.rate * float64(time.Second) / 4)
	}
	return 25 * time.Millisecond
}

// assignID gives a live-mode event without an ID a server-allocated
// one, and raises the allocator past an explicit one.
func (s *Server) assignID(ev core.Event) {
	switch ev.Kind {
	case core.WorkerArrival:
		if ev.Worker.ID == 0 {
			ev.Worker.ID = s.nextWorkerID.Add(1)
		}
	case core.RequestArrival:
		if ev.Request.ID == 0 {
			ev.Request.ID = s.nextReqID.Add(1)
		}
	}
	s.bumpLiveIDs(ev)
}

// bumpLiveIDs raises the live allocator of ev's kind to ev's ID when it
// is below it, so the next ID it hands out is past every explicit,
// assigned and recovered one. Admission and recovery both call it, so a
// recovered allocator equals the live one; the compare-and-swap loop
// makes it safe for concurrent handlers.
func (s *Server) bumpLiveIDs(ev core.Event) {
	next, id := &s.nextReqID, eventID(ev)
	if ev.Kind == core.WorkerArrival {
		next = &s.nextWorkerID
	}
	for cur := next.Load(); id > cur && !next.CompareAndSwap(cur, id); cur = next.Load() {
	}
}

// ServerCounters is the server-side section of the /v1/metrics payload.
type ServerCounters struct {
	UptimeMs      int64   `json:"uptime_ms"`
	Replay        bool    `json:"replay"`
	Draining      bool    `json:"draining"`
	QueueLen      int     `json:"queue_len"`
	QueueCap      int     `json:"queue_cap"`
	Accepted      int64   `json:"accepted"`
	Applied       int64   `json:"applied"`
	RequestsSeen  int64   `json:"requests_seen"`
	WorkersSeen   int64   `json:"workers_seen"`
	Served        int64   `json:"served"`
	Matched       int64   `json:"matched"`
	ShedRateLimit int64   `json:"shed_rate_limit"`
	ShedQueueFull int64   `json:"shed_queue_full"`
	Drained       int64   `json:"drained"`
	DeadlineMiss  int64   `json:"deadline_miss"`
	BadEvents     int64   `json:"bad_events"`
	EngineErrors  int64   `json:"engine_errors"`
	WALErrors     int64   `json:"wal_errors,omitempty"`
	Revenue       float64 `json:"revenue"`
}

// MetricsSnapshot is the /v1/metrics document: admission and decision
// accounting plus the engine collector's matching-funnel counters and
// latency distributions. WAL is present only on durable servers; the
// log's append/fsync counters ride in the engine section
// (wal_appends, wal_fsyncs, wal_fsync_ns, ...).
type MetricsSnapshot struct {
	Server ServerCounters `json:"server"`
	Engine metrics.Report `json:"engine"`
	WAL    *WALStatus     `json:"wal,omitempty"`
}

// Snapshot returns the current metrics document, built on the sequencer
// goroutine while it runs and, once it has exited, from the finished
// run (Close is idempotent).
func (s *Server) Snapshot() MetricsSnapshot {
	reply := make(chan MetricsSnapshot, 1)
	select {
	case s.snapshots <- reply:
		return <-reply
	case <-s.seqDone:
		_, _ = s.Close()
		return s.snapshot(s.opts.Metrics)
	}
}

// snapshot builds the metrics document with mc as its engine section.
func (s *Server) snapshot(mc *metrics.Collector) MetricsSnapshot {
	decided, matched, revBits := s.digest()
	snap := MetricsSnapshot{
		Server: ServerCounters{
			UptimeMs:      time.Since(s.started).Milliseconds(),
			Replay:        s.replayIdx != nil,
			Draining:      s.draining.Load(),
			QueueLen:      len(s.queue),
			QueueCap:      s.opts.QueueCap,
			Accepted:      s.ctr.requestsSeen.Load() + s.ctr.workersSeen.Load(),
			Applied:       s.ctr.applied.Load(),
			RequestsSeen:  s.ctr.requestsSeen.Load(),
			WorkersSeen:   s.ctr.workersSeen.Load(),
			Served:        decided,
			Matched:       matched,
			ShedRateLimit: s.ctr.shedRate.Load(),
			ShedQueueFull: s.ctr.shedQueue.Load(),
			Drained:       s.ctr.drained.Load(),
			DeadlineMiss:  s.ctr.deadlineMiss.Load(),
			BadEvents:     s.ctr.badEvents.Load(),
			EngineErrors:  s.ctr.engineErrors.Load(),
			WALErrors:     s.ctr.walErrors.Load(),
			Revenue:       math.Float64frombits(revBits),
		},
		Engine: mc.Snapshot(),
	}
	if s.wal != nil {
		snap.WAL = &WALStatus{
			Dir:        s.opts.WALDir,
			FsyncBatch: s.opts.FsyncBatch,
			Recovery:   s.rec,
		}
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Tracer == nil {
		http.Error(w, "tracing disabled (start the server with a tracer)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.opts.Tracer.WriteJSONL(w)
}

// HealthStatus is the /healthz response body: "ok" (200) while the
// server admits events, "draining" (503) once it stops. There is no
// recovering state: New re-drives the WAL before there is a handler to
// probe.
type HealthStatus struct {
	Status string `json:"status"`
}

// handleHealth is the readiness probe a fleet router polls.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthStatus{Status: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, HealthStatus{Status: "ok"})
}

// Platforms returns the platform set New resolved, ascending.
func (s *Server) Platforms() []core.PlatformID { return slices.Clone(s.spec.Platforms) }

// spec is the engine configuration the options describe. Replay mode
// takes the platform set and the max value from the recorded stream;
// live mode sorts the platform set, {1, 2} when none is given.
func (o Options) spec() platform.Spec {
	sp := platform.Spec{Algorithm: o.Algorithm, Seed: o.Seed, Platforms: slices.Clone(o.Platforms),
		MaxValue: o.MaxValue, ServiceTicks: o.ServiceTicks, DisableCoop: o.DisableCoop, Faults: o.Faults,
		Window: o.Window, BatchDeadline: o.BatchDeadline}
	switch {
	case o.Replay != nil:
		sp.Platforms, sp.MaxValue = o.Replay.Platforms(), o.Replay.MaxValue()
	case len(sp.Platforms) == 0:
		sp.Platforms = []core.PlatformID{1, 2}
	default:
		slices.Sort(sp.Platforms)
	}
	return sp
}
