package crossmatch

import (
	"context"
	"errors"
	"fmt"

	"crossmatch/internal/core"
	"crossmatch/internal/experiments"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/trace"
	"crossmatch/internal/workload"
)

// Algorithm names accepted by SimulateContext.
const (
	// TOTA is the single-platform online greedy baseline [9].
	TOTA = platform.AlgTOTA
	// GreedyRT is the randomized-threshold baseline of [9].
	GreedyRT = platform.AlgGreedyRT
	// DemCOM is the deterministic cross online matching of Algorithm 1.
	DemCOM = platform.AlgDemCOM
	// RamCOM is the randomized cross online matching of Algorithm 3.
	RamCOM = platform.AlgRamCOM
	// BatchCOM is the windowed-dispatch variant: arrivals buffer for a
	// configurable window of virtual time (WithBatchWindow) and each
	// window is solved as one batch matching over the feasible inner and
	// outer edges; per-request deadlines (WithBatchDeadline) pull a
	// flush forward. Deterministic for a fixed seed and window.
	BatchCOM = platform.AlgBatchCOM
)

// DefaultBatchWindow is the window BatchCOM uses when WithBatchWindow
// is absent or non-positive.
const DefaultBatchWindow = platform.DefaultBatchWindow

// Sentinel errors. Callers should test with errors.Is: lookups wrap
// these with the offending name and the accepted values.
var (
	// ErrUnknownAlgorithm reports an algorithm name SimulateContext does
	// not recognize.
	ErrUnknownAlgorithm = platform.ErrUnknownAlgorithm
	// ErrUnknownPreset reports a dataset preset name GenerateCity or
	// ReproduceTable does not recognize.
	ErrUnknownPreset = workload.ErrUnknownPreset
	// ErrBadOption reports an out-of-range functional option (a trace
	// sample rate above 1, negative service ticks, a negative probe
	// deadline). Every entry point taking options wraps it with the
	// offending option and value.
	ErrBadOption = errors.New("bad option")
)

// Re-exported domain types. The full type definitions live in
// internal/core; these aliases are the supported public surface.
type (
	// Request is a user request r = <t, l, v> (Definition 2.1).
	Request = core.Request
	// Worker is a crowd worker w = <t, l, rad> (Definitions 2.2/2.3).
	Worker = core.Worker
	// Stream is a time-ordered sequence of worker and request arrivals.
	Stream = core.Stream
	// Assignment pairs a request with the worker serving it.
	Assignment = core.Assignment
	// Matching is a validated set of assignments with revenue accounting.
	Matching = core.Matching
	// PlatformID identifies a spatial crowdsourcing platform.
	PlatformID = core.PlatformID
	// Time is a discrete arrival tick.
	Time = core.Time
	// SimResult is the outcome of a SimulateContext run.
	SimResult = platform.Result
	// OfflineResult is the outcome of the OFF baseline.
	OfflineResult = platform.OfflineResult
	// Metrics is a race-free counter/latency collector; attach one with
	// WithMetrics and read it with Snapshot after (or during) runs.
	Metrics = metrics.Collector
	// PricingStats aggregates the COM matchers' pricing-quoter counters
	// over a run: quote counts per entry point, acceptance-probability
	// evaluations with the fraction served from the per-shard payment
	// cache, and Scratch reuse versus allocation. Read it from
	// Metrics.Snapshot().Pricing (attach the collector with WithMetrics).
	PricingStats = metrics.PricingStats
	// Preset describes one of the paper's Table III dataset substitutes.
	Preset = workload.Preset
	// FaultPlan describes deterministic cooperation faults (latency
	// spikes, dropped probes, transient claim errors, scheduled platform
	// outages) plus the retry and circuit-breaker policy that contains
	// them; attach one with WithFaultPlan.
	FaultPlan = fault.Plan
	// FaultOutage schedules a whole-platform outage window on the
	// stream timeline inside a FaultPlan.
	FaultOutage = fault.Outage
	// FaultRetryPolicy bounds each cooperative probe or claim call:
	// attempts, capped exponential backoff and a virtual deadline.
	FaultRetryPolicy = fault.RetryPolicy
	// FaultBreakerConfig tunes the per-platform circuit breakers.
	FaultBreakerConfig = fault.BreakerConfig
	// Tracer records per-request decision spans (stage timings, outcome,
	// payment, injected faults) into bounded per-platform ring buffers;
	// attach one with WithTracer and export with its Spans, WriteJSONL
	// or WriteChromeTrace method, or aggregate with its Report method.
	Tracer = trace.Tracer
	// TraceOptions configures NewTracer: ring capacity per platform and
	// sampling rate (requests are sampled by a fixed hash of their ID).
	TraceOptions = trace.Options
	// TraceSpan is one traced request decision.
	TraceSpan = trace.Span
	// TraceReport is the per-algorithm per-stage latency aggregation of a
	// tracer's retained spans.
	TraceReport = trace.Report
)

// ParseFaultPlan parses the textual fault-plan specification used by
// combench's -faults flag (e.g. "drop=0.1,latency=0.2:1ms-10ms,
// outage=2@100-300"); see the internal/fault documentation and
// EXPERIMENTS.md "Fault model & degradation" for the full grammar.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// NewMetrics returns an empty collector ready to share across
// concurrent simulations.
func NewMetrics() *Metrics { return metrics.New() }

// NewTracer returns a decision tracer ready to share across concurrent
// simulations (see WithTracer). The zero Options trace every request
// into rings of trace.DefaultCapacity spans per platform.
func NewTracer(opts TraceOptions) *Tracer { return trace.New(opts) }

// Presets lists the supported Table III dataset presets in the order
// the paper reports them (Tables V-VII).
func Presets() []Preset { return workload.Presets() }

// NewStream validates and time-orders arrival events built from workers
// and requests. The stream keeps the pointers it is given. A worker's
// History may be in any order, but must not be written once the worker
// is in a stream: a run reads an ascending History in place and copies
// any other.
func NewStream(workers []*Worker, requests []*Request) (*Stream, error) {
	return core.NewStream(append(core.WorkerEvents(workers), core.RequestEvents(requests)...))
}

// ExampleStream returns the paper's running Example 1 (Fig. 3,
// Tables I-II) as a ready-made two-platform stream.
func ExampleStream() (*Stream, error) { return core.ExampleOneStream() }

// GenerateSynthetic builds a two-platform Table IV-style workload:
// totalRequests and totalWorkers split evenly between two cooperating
// platforms with complementary spatial skew, service radius rad (km),
// and value distribution "real" (log-normal) or "normal".
func GenerateSynthetic(totalRequests, totalWorkers int, rad float64, valueDist string, seed int64) (*Stream, error) {
	cfg, err := workload.Synthetic(totalRequests, totalWorkers, rad, valueDist)
	if err != nil {
		return nil, err
	}
	return workload.Generate(cfg, seed)
}

// presetFor resolves a Table III preset name, prefixing lookup failures
// with the package name; the returned error wraps ErrUnknownPreset.
func presetFor(name string) (workload.Preset, error) {
	p, err := workload.PresetFor(name)
	if err != nil {
		return workload.Preset{}, fmt.Errorf("crossmatch: %w", err)
	}
	return p, nil
}

// GenerateCity builds one of the paper's Table III dataset substitutes
// ("RDC10+RYC10", "RDC11+RYC11" or "RDX11+RYX11") at the given scale in
// (0, 1] of the paper's counts.
func GenerateCity(preset string, scale float64, seed int64) (*Stream, error) {
	p, err := presetFor(preset)
	if err != nil {
		return nil, err
	}
	cfg, err := p.Config(scale)
	if err != nil {
		return nil, err
	}
	return workload.Generate(cfg, seed)
}

// Option configures a SimulateContext run.
type Option func(*simConfig)

type simConfig struct {
	seed          int64
	disableCoop   bool
	serviceTicks  Time
	metrics       *Metrics
	profileLabel  string
	faults        *FaultPlan
	tracer        *Tracer
	batchWindow   Time
	batchDeadline Time
}

// algConfig lowers the option set into the per-algorithm factory knobs;
// the window fields only matter when the algorithm is windowed.
func algConfig(maxValue float64, opts []Option) platform.AlgConfig {
	var c simConfig
	for _, opt := range opts {
		opt(&c)
	}
	return platform.AlgConfig{MaxValue: maxValue, Window: c.batchWindow, Deadline: c.batchDeadline}
}

// platformConfig lowers the functional options into the runtime Config —
// the single mapping shared by SimulateContext and NewEngine, so both
// entry points interpret the options identically. Out-of-range options
// are rejected with an error wrapping ErrBadOption rather than silently
// clamped.
func platformConfig(opts []Option) (platform.Config, error) {
	var c simConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.serviceTicks < 0 {
		return platform.Config{}, fmt.Errorf("crossmatch: %w: service ticks %d negative", ErrBadOption, c.serviceTicks)
	}
	return platform.Config{
		Seed:         c.seed,
		DisableCoop:  c.disableCoop,
		ServiceTicks: c.serviceTicks,
		Metrics:      c.metrics,
		ProfileLabel: c.profileLabel,
		Faults:       c.faults,
		Trace:        c.tracer,
	}, nil
}

// WithSeed roots all of the run's randomness; the same seed and stream
// give the same result.
func WithSeed(seed int64) Option {
	return func(c *simConfig) { c.seed = seed }
}

// WithCoopDisabled turns off cross-platform worker sharing, degrading
// the COM algorithms to TOTA (the Section III-D ablation).
func WithCoopDisabled() Option {
	return func(c *simConfig) { c.disableCoop = true }
}

// WithServiceTicks returns each worker to its waiting list that many
// ticks after an assignment (an engine-level extension; the paper's
// model instead encodes returns as fresh worker arrivals, which the
// generators produce).
func WithServiceTicks(ticks Time) Option {
	return func(c *simConfig) { c.serviceTicks = ticks }
}

// WithMetrics attaches a collector that tallies matches, rejections,
// acceptance probes and per-platform decision latencies. One collector
// may be shared by concurrent runs; pass nil to disable (the default).
func WithMetrics(m *Metrics) Option {
	return func(c *simConfig) { c.metrics = m }
}

// WithProfileLabel tags the run's goroutines with a pprof label so CPU
// profiles of concurrent simulations stay attributable.
func WithProfileLabel(label string) Option {
	return func(c *simConfig) { c.profileLabel = label }
}

// WithFaultPlan injects deterministic cooperation faults into the run:
// probes and claims against partner platforms suffer the plan's latency
// spikes, drops, transient claim errors and scheduled outages, retried
// under the plan's deadline/backoff policy, with a circuit breaker per
// partner so matching degrades gracefully to inner-only against a dark
// platform. Fault randomness is seeded (Plan.Seed, falling back to the
// run seed) and never touches matcher randomness: a nil plan — or no
// plan at all — keeps results bit-identical to a fault-free run.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *simConfig) { c.faults = p }
}

// WithTracer records each traced request's decision as a span — stage
// timings (inner lookup, eligibility, pricing, probes, claim), outcome
// tag, payment, and any faults injected while the decision was in
// flight — into the tracer's bounded per-platform rings. Tracing never
// draws from matcher RNGs, so results are bit-identical with tracing on
// or off. One tracer may be shared by concurrent runs; pass
// nil to disable (the default).
func WithTracer(t *Tracer) Option {
	return func(c *simConfig) { c.tracer = t }
}

// WithBatchWindow sets BatchCOM's batching window in virtual ticks;
// non-positive (the default) selects DefaultBatchWindow. The greedy
// algorithms ignore it.
func WithBatchWindow(w Time) Option {
	return func(c *simConfig) { c.batchWindow = w }
}

// WithBatchDeadline caps how long BatchCOM may hold any single request,
// pulling its window flush forward when a buffered request would
// otherwise wait longer; non-positive (the default) leaves flushes on
// the window boundary. The greedy algorithms ignore it.
func WithBatchDeadline(d Time) Option {
	return func(c *simConfig) { c.batchDeadline = d }
}

// SimulateContext runs the named online algorithm over the stream, one
// matcher per platform, cooperating through a shared hub. The context
// cancels mid-stream: the run stops between arrival events and returns
// the partial result alongside an error wrapping ctx.Err().
func SimulateContext(ctx context.Context, stream *Stream, algorithm string, opts ...Option) (*SimResult, error) {
	factory, err := platform.FactoryConfigured(algorithm, algConfig(stream.MaxValue(), opts))
	if err != nil {
		return nil, fmt.Errorf("crossmatch: %w", err)
	}
	cfg, err := platformConfig(opts)
	if err != nil {
		return nil, err
	}
	return platform.RunContext(ctx, stream, factory, cfg)
}

// Serving seam: the incremental engine behind the live matching
// service (cmd/comserve). Where SimulateContext consumes a pre-built
// Stream, these entry points accept arrivals one at a time — from a
// socket, a queue, a generator — under the same determinism contract:
// feeding a validated stream's events in order reproduces
// SimulateContext bit for bit.
type (
	// Event is one arrival (worker or request) on the virtual timeline.
	Event = core.Event
	// EventKind discriminates worker from request arrivals.
	EventKind = core.EventKind
	// MatchEngine is the incremental runtime: one Process call per
	// arrival event, decisions returned synchronously, Finish for the
	// accumulated result. Single-goroutine: exactly one caller may drive
	// it (see platform.Engine).
	MatchEngine = platform.Engine
	// EngineDecision is the serving-facing outcome of one request
	// arrival: who served it, at what payment, and why.
	EngineDecision = platform.RequestDecision
)

// Event kinds.
const (
	WorkerArrival  = core.WorkerArrival
	RequestArrival = core.RequestArrival
)

// Engine lifecycle errors; match with errors.Is.
var (
	// ErrEngineClosed reports a MatchEngine driven after Finish.
	ErrEngineClosed = platform.ErrEngineClosed
	// ErrTimeRegression reports an event fed out of time order.
	ErrTimeRegression = platform.ErrTimeRegression
)

// NewEngine builds an incremental matching engine for the named
// algorithm over the given platform set (ascending IDs for parity with
// stream runs). maxValue is the a-priori max request value Umax the
// threshold algorithms (RamCOM, Greedy-RT) assume known; TOTA and
// DemCOM ignore it. The usual options apply.
func NewEngine(pids []PlatformID, algorithm string, maxValue float64, opts ...Option) (*MatchEngine, error) {
	factory, err := platform.FactoryConfigured(algorithm, algConfig(maxValue, opts))
	if err != nil {
		return nil, fmt.Errorf("crossmatch: %w", err)
	}
	cfg, err := platformConfig(opts)
	if err != nil {
		return nil, err
	}
	eng, err := platform.NewEngine(pids, factory, cfg)
	if err != nil {
		return nil, fmt.Errorf("crossmatch: %w", err)
	}
	return eng, nil
}

// Offline computes the OFF baseline: the offline optimum of COM as an
// exact maximum-weight bipartite matching (Section II-B). It is exact at
// every size it accepts; a stream whose graph is past the solver's work
// bound gets an error naming the graph's sizes, not an estimate.
func Offline(stream *Stream) (*OfflineResult, error) {
	return platform.Offline(stream)
}

// ReproduceTable regenerates one of the paper's Tables V-VII for the
// named dataset preset at the given scale; see EXPERIMENTS.md for the
// published runs. The returned result renders with .Table().
func ReproduceTable(preset string, scale float64, seed int64) (*experiments.TableResult, error) {
	p, err := presetFor(preset)
	if err != nil {
		return nil, err
	}
	return experiments.RunTable(p, experiments.TableOptions{Scale: scale, Seed: seed})
}
