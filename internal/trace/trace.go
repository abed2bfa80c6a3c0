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
// flight. Spans land in fixed-capacity per-platform ring buffers (no
// unbounded growth) and export as JSONL, as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing), or aggregated into a
// per-algorithm per-stage latency report built on stats.Reservoir
// percentiles.
//
// The engine opens a request's span just before its matcher decides it
// and closes it with the decision; the matcher only records stage laps
// on its bound Recorder. The disabled path is free by design: a nil
// *Tracer yields nil *Recorders, every Recorder method is a
// nil-receiver no-op and does nothing while no span is open, so the
// instrumented hot path reads no clock and allocates nothing when
// tracing is off. Sampling is a fixed hash of the request ID, never a
// draw from any RNG, so enabling tracing cannot perturb matching
// decisions and a sampled request is sampled in every run.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
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
var stageNames = [numStages]string{"inner-lookup", "eligibility", "pricing", "probes", "claim"}

// String returns the export name of the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
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

// Span is one traced request decision, in its wire format (JSONL
// round-trips through encoding/json).
type Span struct {
	// Seq orders spans across all platforms of the tracer by commit
	// time (starts at 1).
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
	// Start is the decision's start in nanoseconds of the monotonic
	// clock since the package epoch; Total the decision's duration.
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
}

// epoch is the origin of Now.
var epoch = time.Now()

// Now is the one clock of decision timing: the monotonic time since the
// package epoch (time.Since of it reads the monotonic clock alone, where
// time.Now reads the wall clock as well). The engine's latency record
// and every span start, end and lap read it, so a span's Total is the
// latency the engine observes for its decision.
func Now() time.Duration { return time.Since(epoch) }

// Options configures a Tracer.
type Options struct {
	// Capacity bounds each platform's span ring buffer; once full, new
	// spans evict the oldest. Non-positive means DefaultCapacity.
	Capacity int
	// Sample is the fraction of requests traced, in (0, 1]. Zero means
	// trace everything (1.0); negative disables recording entirely. The
	// traced set is a fixed function of the request IDs.
	Sample float64
}

// DefaultCapacity bounds each platform ring when Options.Capacity is
// not set: 4096 spans ≈ a few MB per platform at full fault load.
const DefaultCapacity = 4096

// CheckFlags is the one check the commands apply to their -trace-sample
// and -trace-cap flags: a rate in [0, 1], 0 tracing everything, and a
// capacity that is not negative, 0 meaning DefaultCapacity. NaN fails
// it, as do the negative rates that disable recording.
func CheckFlags(sample float64, capacity int) error {
	if !(sample >= 0 && sample <= 1) {
		return fmt.Errorf("-trace-sample must be in [0,1] (0 traces everything), got %g", sample)
	}
	if capacity < 0 {
		return fmt.Errorf("-trace-cap must not be negative, got %d", capacity)
	}
	return nil
}

// Tracer owns the span rings of one simulation (or of a whole
// experiment when shared across unit runs, like a metrics.Collector).
// All methods are safe for concurrent use; a nil *Tracer is a no-op
// everywhere.
type Tracer struct {
	opts Options

	// mu guards the sequence number, the ring map and every ring. A
	// recorder takes it once per committed span; readers (a serving
	// layer's trace export, a report) take it too.
	mu    sync.Mutex
	seq   uint64
	rings map[core.PlatformID]*ring
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Sample == 0 || opts.Sample > 1 {
		opts.Sample = 1
	}
	return &Tracer{opts: opts, rings: make(map[core.PlatformID]*ring)}
}

// sampled reports whether the request with this ID is traced: every
// request at Sample 1, none at a negative Sample, and otherwise those
// whose mixed ID falls below Sample × 2⁶⁴. The set depends on the ID
// alone, so it is the same in every run and on every platform.
func (t *Tracer) sampled(id int64) bool {
	s := t.opts.Sample
	return s >= 1 || s > 0 && mix(uint64(id)) < uint64(s*(1<<64))
}

// mix is the splitmix64 finalizer: a fixed bijection of the 64-bit
// words that spreads consecutive IDs evenly.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// ring is one platform's span buffer of at most Options.Capacity
// spans, guarded by its tracer's mu.
type ring struct {
	buf   []Span
	next  int    // overwrite cursor once full
	total uint64 // spans ever committed
}

// commit stamps the span with the next sequence number and adds it to
// the ring, evicting the oldest span once the ring is full.
func (t *Tracer) commit(g *ring, sp Span) {
	t.mu.Lock()
	t.seq++
	sp.Seq = t.seq
	if len(g.buf) < t.opts.Capacity {
		g.buf = append(g.buf, sp)
	} else {
		g.buf[g.next] = sp
		g.next = (g.next + 1) % len(g.buf)
	}
	g.total++
	t.mu.Unlock()
}

// Spans returns every retained span across all platforms, ordered by
// commit sequence.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	for _, g := range t.rings {
		out = append(out, g.buf[g.next:]...)
		out = append(out, g.buf[:g.next]...)
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b Span) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Dropped returns how many committed spans have been evicted by ring
// wrap-around (bounded memory is the contract; this is its price).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var dropped uint64
	for _, g := range t.rings {
		dropped += g.total - uint64(len(g.buf))
	}
	return dropped
}
