// Package trace is the per-request decision tracer of the simulation
// engine. Where internal/metrics aggregates counters and latency
// distributions across a whole run, trace answers the question a
// production matcher is actually debugged with: where inside *this*
// decision did the time go — the inner-pool lookup, the hub eligibility
// scan, Algorithm 2's Monte-Carlo pricing, the acceptance probes, or
// the claim loop — and why did the request end the way it did.
//
// Each traced request produces one Span: stage timings, outcome tag
// (served inner/outer, rejection reason), payment, probe and
// claim-retry counts, and any cooperation faults or circuit-breaker
// transitions injected by internal/fault while the decision was in
// flight. Spans land in fixed-capacity per-platform ring buffers — no
// unbounded growth, race-safe under the concurrent per-platform
// runtime — and export as JSONL, as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing), or aggregated into a per-algorithm
// per-stage latency report built on stats.Reservoir percentiles.
//
// The disabled path is free by design: a nil *Tracer yields nil
// *Recorders, a nil *Recorder yields nil *Spans, and every method is a
// nil-receiver no-op, so the matchers' instrumented hot path performs
// no time syscalls, no allocation and no RNG draws when tracing is off.
// Sampling draws from a tracer-owned generator, never from matcher
// RNGs, so enabling tracing cannot perturb matching decisions.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/core"
)

// Stage identifies one timed phase of a matching decision.
type Stage uint8

const (
	// StageInner is the inner-pool nearest-worker lookup (Algorithm 1
	// lines 3-6 / the TOTA baseline's whole decision).
	StageInner Stage = iota
	// StageEligibility is the hub's outer-worker eligibility scan
	// (Definition 2.6 constraints), including fault-injected partner
	// probes when a fault plan is active.
	StageEligibility
	// StagePricing is the outer-payment computation: Algorithm 2's
	// Monte-Carlo minimum payment (DemCOM) or the expected-revenue
	// maximization of Definition 4.1 (RamCOM).
	StagePricing
	// StageProbes is the per-candidate acceptance probing at the quoted
	// payment (Algorithm 1 lines 17-20).
	StageProbes
	// StageClaim is the claim loop over accepting candidates, including
	// retries after claims lost to other platforms (lines 21-24).
	StageClaim

	numStages
)

// stageNames index by Stage; they are the wire names used in exports.
var stageNames = [numStages]string{
	"inner-lookup",
	"eligibility",
	"pricing",
	"probes",
	"claim",
}

// String returns the export name of the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in decision order (for report builders).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageLap is one stage's recorded time within a span: the offset from
// the span start and the accumulated duration (a stage entered twice,
// e.g. RamCOM's inner fallback after a failed cooperative path, keeps
// its first offset and sums its durations).
type StageLap struct {
	Stage  string `json:"stage"`
	Offset int64  `json:"offset_ns"`
	Dur    int64  `json:"dur_ns"`
}

// FaultEvent is one cooperation fault observed while the span's request
// was being decided (see internal/fault): an injected latency spike,
// drop, claim error, outage hit, retry, timeout, breaker short-circuit
// or breaker state transition attributed to the probing platform.
type FaultEvent struct {
	Partner int32  `json:"partner"`
	Kind    string `json:"kind"`
	Latency int64  `json:"latency_ns,omitempty"`
}

// Span is one traced request decision. Exported fields are the wire
// format (JSONL round-trips through encoding/json); unexported fields
// are recording state, zeroed before the span is committed to its ring.
type Span struct {
	// Seq orders spans across all platforms of the tracer by commit
	// time (atomic counter, starts at 1).
	Seq uint64 `json:"seq"`
	// RunSeed identifies the simulation run that produced the span when
	// one tracer is shared across an experiment's unit runs.
	RunSeed   int64  `json:"run_seed"`
	Platform  int32  `json:"platform"`
	Algorithm string `json:"algorithm"`
	RequestID int64  `json:"request"`
	// Arrival is the request's stream-time arrival tick.
	Arrival int64   `json:"arrival"`
	Value   float64 `json:"value"`
	// Start is the wall-clock start offset in nanoseconds since the
	// tracer was created; Total the decision's wall-clock duration.
	Start int64 `json:"start_ns"`
	Total int64 `json:"total_ns"`
	// Stages holds the laps of every stage the decision entered, in
	// decision order.
	Stages []StageLap `json:"stages,omitempty"`
	// Outcome tags how the decision ended; the values are the
	// online.Reason strings ("inner", "outer", "no-workers", ...).
	Outcome string `json:"outcome"`
	// Payment is the outer payment v' for cooperative assignments.
	Payment      float64      `json:"payment,omitempty"`
	Probes       int          `json:"probes,omitempty"`
	ClaimRetries int          `json:"claim_retries,omitempty"`
	Faults       []FaultEvent `json:"faults,omitempty"`

	rec   *Recorder
	begun time.Time
	laps  [numStages]lap
}

type lap struct {
	offset time.Duration
	dur    time.Duration
}

// Options configures a Tracer.
type Options struct {
	// Capacity bounds each platform's span ring buffer; once full, new
	// spans evict the oldest. Non-positive means DefaultCapacity.
	Capacity int
	// Sample is the fraction of requests traced, in (0, 1]. Zero means
	// trace everything (1.0); negative disables recording entirely.
	Sample float64
	// Seed roots the sampling randomness (decorrelated per platform and
	// run); sampling never draws from matcher RNGs.
	Seed int64
}

// DefaultCapacity bounds each platform ring when Options.Capacity is
// not set: 4096 spans ≈ a few MB per platform at full fault load.
const DefaultCapacity = 4096

// Tracer owns the span rings of one simulation (or of a whole
// experiment when shared across unit runs, like a metrics.Collector).
// All methods are safe for concurrent use; a nil *Tracer is a no-op
// everywhere.
type Tracer struct {
	opts  Options
	epoch time.Time
	seq   atomic.Uint64

	mu    sync.Mutex
	rings map[core.PlatformID]*ring
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Sample == 0 {
		opts.Sample = 1
	}
	if opts.Sample > 1 {
		opts.Sample = 1
	}
	return &Tracer{
		opts:  opts,
		epoch: time.Now(),
		rings: make(map[core.PlatformID]*ring),
	}
}

// ring is one platform's fixed-capacity span buffer.
type ring struct {
	mu    sync.Mutex
	buf   []Span
	cap   int
	next  int    // overwrite cursor once full
	total uint64 // spans ever committed
}

func (g *ring) add(sp Span) {
	g.mu.Lock()
	if len(g.buf) < g.cap {
		g.buf = append(g.buf, sp)
	} else {
		g.buf[g.next] = sp
		g.next++
		if g.next == g.cap {
			g.next = 0
		}
	}
	g.total++
	g.mu.Unlock()
}

// snapshot returns the retained spans, oldest first.
func (g *ring) snapshot() []Span {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Span, 0, len(g.buf))
	out = append(out, g.buf[g.next:]...)
	out = append(out, g.buf[:g.next]...)
	return out
}

func (t *Tracer) ringFor(pid core.PlatformID) *ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.rings[pid]
	if !ok {
		g = &ring{cap: t.opts.Capacity}
		t.rings[pid] = g
	}
	return g
}

// Spans returns every retained span across all platforms, ordered by
// commit sequence.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	rings := make([]*ring, 0, len(t.rings))
	for _, g := range t.rings {
		rings = append(rings, g)
	}
	t.mu.Unlock()
	var out []Span
	for _, g := range rings {
		out = append(out, g.snapshot()...)
	}
	sortSpans(out)
	return out
}

// Recorded returns how many spans were ever committed, and Dropped how
// many of those the rings have since evicted.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, g := range t.rings {
		g.mu.Lock()
		n += g.total
		g.mu.Unlock()
	}
	return n
}

// Dropped returns how many committed spans have been evicted by ring
// wrap-around (bounded memory is the contract; this is its price).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, g := range t.rings {
		g.mu.Lock()
		n += g.total - uint64(len(g.buf))
		g.mu.Unlock()
	}
	return n
}
