package crossmatch

import (
	"context"
	"fmt"

	"crossmatch/internal/core"
	"crossmatch/internal/experiments"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
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
	// ErrBadOption reports an out-of-range setting (negative service
	// ticks, a threshold algorithm's max value that is not positive and
	// finite). Every entry point taking options wraps it with the
	// offending setting and value.
	ErrBadOption = platform.ErrBadOption
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
	// WithMetrics and read it with Snapshot once runs have finished.
	Metrics = metrics.Collector
	// PricingStats aggregates the COM matchers' pricing-quoter counters
	// over a run: quote counts per entry point, acceptance-probability
	// evaluations with the fraction answered from the per-quote
	// dichotomy tree, and Scratch reuse versus allocation. Read it from
	// Metrics.Snapshot().Pricing (attach the collector with WithMetrics).
	PricingStats = metrics.PricingStats
	// Preset describes one of the paper's Table III dataset substitutes.
	Preset = workload.Preset
	// FaultPlan describes deterministic cooperation faults: latency
	// spikes, dropped probes, transient claim errors and scheduled
	// platform outages. A fixed policy contains them: 3 tries per probe
	// or claim within a virtual 20 ms deadline, and a breaker per
	// partner that 5 consecutive failed calls open for 60 ticks. The
	// fault randomness is seeded from the run's seed. Attach one with
	// WithFaultPlan.
	FaultPlan = fault.Plan
	// FaultOutage schedules a whole-platform outage window on the
	// stream timeline inside a FaultPlan.
	FaultOutage = fault.Outage
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

// simConfig is the engine spec the options set plus the observers that
// watch a run without deciding its bits.
type simConfig struct {
	spec         platform.Spec
	metrics      *Metrics
	profileLabel string
	tracer       *Tracer
}

// lower applies the options to spec and lowers it: the one mapping
// SimulateContext and NewEngine share. An out-of-range setting is an
// error wrapping ErrBadOption, never silently clamped.
func lower(spec platform.Spec, opts []Option) (platform.MatcherFactory, platform.Config, error) {
	c := simConfig{spec: spec}
	for _, opt := range opts {
		opt(&c)
	}
	factory, cfg, err := c.spec.Lower()
	if err != nil {
		return nil, cfg, fmt.Errorf("crossmatch: %w", err)
	}
	cfg.Metrics, cfg.ProfileLabel, cfg.Trace = c.metrics, c.profileLabel, c.tracer
	return factory, cfg, nil
}

// WithSeed roots all of the run's randomness; the same seed and stream
// give the same result.
func WithSeed(seed int64) Option {
	return func(c *simConfig) { c.spec.Seed = seed }
}

// WithCoopDisabled turns off cross-platform worker sharing, degrading
// the COM algorithms to TOTA (the Section III-D ablation).
func WithCoopDisabled() Option {
	return func(c *simConfig) { c.spec.DisableCoop = true }
}

// WithServiceTicks returns each worker to its waiting list that many
// ticks after an assignment (an engine-level extension; the paper's
// model instead encodes returns as fresh worker arrivals, which the
// generators produce).
func WithServiceTicks(ticks Time) Option {
	return func(c *simConfig) { c.spec.ServiceTicks = ticks }
}

// WithMetrics attaches a collector that tallies matches, rejections,
// acceptance probes and per-platform decision latencies when the run
// finishes. One collector may be shared by concurrent runs; pass nil to
// disable (the default).
func WithMetrics(m *Metrics) Option {
	return func(c *simConfig) { c.metrics = m }
}

// WithProfileLabel tags the run's goroutines with a pprof label so CPU
// profiles of concurrent simulations stay attributable.
func WithProfileLabel(label string) Option {
	return func(c *simConfig) { c.profileLabel = label }
}

// WithFaultPlan injects the plan's deterministic cooperation faults into
// probes and claims against partner platforms, with a circuit breaker
// per partner; matching degrades to inner-only against a dark platform.
// Fault randomness never touches matcher randomness: a nil plan — or no
// plan at all — keeps results bit-identical to a fault-free run.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *simConfig) { c.spec.Faults = p }
}

// WithTracer records each traced request's decision as a span (stage
// timings, outcome, payment, injected faults) into the tracer's bounded
// per-platform rings, without changing a result bit. One tracer may be
// shared by concurrent runs; pass nil to disable (the default).
func WithTracer(t *Tracer) Option {
	return func(c *simConfig) { c.tracer = t }
}

// WithBatchWindow sets BatchCOM's batching window in virtual ticks;
// non-positive (the default) selects DefaultBatchWindow. The greedy
// algorithms ignore it.
func WithBatchWindow(w Time) Option {
	return func(c *simConfig) { c.spec.Window = w }
}

// WithBatchDeadline caps how long BatchCOM may hold any single request,
// pulling its window flush forward when a buffered request would
// otherwise wait longer; non-positive (the default) leaves flushes on
// the window boundary. The greedy algorithms ignore it.
func WithBatchDeadline(d Time) Option {
	return func(c *simConfig) { c.spec.BatchDeadline = d }
}

// SimulateContext runs the named online algorithm over the stream, one
// matcher per platform, cooperating through a shared hub. The context
// cancels mid-stream: the run stops between arrival events and returns
// the partial result alongside an error wrapping ctx.Err().
func SimulateContext(ctx context.Context, stream *Stream, algorithm string, opts ...Option) (*SimResult, error) {
	factory, cfg, err := lower(platform.Spec{Algorithm: algorithm, MaxValue: stream.MaxValue()}, opts)
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
	// accumulated result. SetDecisionHandler receives every request
	// decision the engine books, a greedy one inside the Process call
	// that decides it and a windowed (BatchCOM) one at its window's
	// flush, so it is the one place to keep a ledger. A worker ID that
	// has already served, or that waits on another platform, is refused;
	// so is a request ID its platform has served or holds in an open
	// window. Single-goroutine: exactly one caller may drive it (see
	// platform.Engine).
	MatchEngine = platform.Engine
	// EngineDecision is one decided request, the record the engine
	// decides into, books, hands to the decision handler and returns
	// from Process: the Request, the tick At it was decided, and the
	// Decision — Served, Reason and, when served, the Assignment (its
	// Worker, Outer flag, Payment and Revenue()). A windowed matcher's
	// Process returns a placeholder with Reason "buffered"; the decision
	// handler never sees one.
	EngineDecision = online.Decided
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
// threshold algorithms (RamCOM, Greedy-RT) assume known, positive and
// finite; the others ignore it. The usual options apply.
func NewEngine(pids []PlatformID, algorithm string, maxValue float64, opts ...Option) (*MatchEngine, error) {
	factory, cfg, err := lower(platform.Spec{Algorithm: algorithm, MaxValue: maxValue}, opts)
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
