package platform

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"slices"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
	"crossmatch/internal/stats"
	"crossmatch/internal/trace"
)

// MatcherFactory builds one platform's online matcher. coop is that
// platform's window onto the other platforms' unoccupied workers; rng is
// a platform-private generator derived from the simulation seed.
type MatcherFactory func(id core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher

// traceBinder is implemented by matchers that lap the stages of their
// decisions; the spans of a matcher without it carry no stage laps.
type traceBinder interface{ BindTrace(*trace.Recorder) }

// pricingStatsProvider is implemented by matchers that expose their
// pricing quoter's counters; the run folds them into Config.Metrics.
type pricingStatsProvider interface{ PricingStats() pricing.Stats }

// Config controls a simulation run.
type Config struct {
	// Seed drives every random choice (matcher thresholds, acceptance
	// probes, Monte-Carlo sampling). Same seed, same stream, same result.
	Seed int64
	// ServiceTicks, when positive, recycles workers: a worker who
	// completes a request re-joins its platform's waiting list
	// ServiceTicks after the assignment, at the request's location, as
	// a fresh waiting-list entry with the earned value appended to its
	// history (the paper's "comes back to the platform again at a new
	// time point"). Zero keeps the paper's one-shot matching model used
	// in the evaluation.
	ServiceTicks core.Time
	// DisableCoop turns off worker sharing: COM algorithms degrade to
	// TOTA (the degradation ablation).
	DisableCoop bool
	// Metrics, when non-nil, receives the run's matching-funnel counters
	// (inner/outer matches, cooperative attempts, acceptance probes,
	// rejections, claim retries) and per-platform decision-latency
	// observations. The collector is safe to share across concurrent
	// runs.
	Metrics *metrics.Collector
	// ProfileLabel, when non-empty, tags the run's goroutine with a
	// "crossmatch.run" pprof label so CPU profiles of a parallel
	// experiment attribute samples to individual runs.
	ProfileLabel string
	// Faults, when non-nil, injects cooperation faults (latency spikes,
	// dropped probes, transient claim errors, scheduled platform
	// outages) into the hub's probe and claim path and guards every
	// partner platform with a circuit breaker, so the COM matchers
	// degrade gracefully to inner-only matching against dark partners.
	// Fault randomness is seeded (Plan.Seed, falling back to Seed), so
	// faulted runs stay reproducible; matcher randomness is
	// never touched, and a nil plan leaves the run bit-identical to a
	// fault-free build. See internal/fault.
	Faults *fault.Plan
	// Trace, when non-nil, records per-request decision spans (stage
	// timings, outcome, payment, faults) into the tracer's bounded
	// per-platform rings. Tracing never draws from matcher RNGs, so a
	// run's matching result is bit-identical with tracing on, off, or
	// sampled. Safe to share one tracer across the unit runs of
	// an experiment, like Metrics. See internal/trace.
	Trace *trace.Tracer
	// Shards and ShardReach are inert — read by nothing. They are kept
	// only because the frozen bench/probes.go sets them; the next
	// benchmark PR deletes them with the shard.* rows.
	Shards     int
	ShardReach float64
}

// PlatformResult aggregates one platform's outcomes.
type PlatformResult struct {
	ID       core.PlatformID
	Name     string // matcher name
	Stats    online.Stats
	Matching *core.Matching
	// Latency is the one record of decision latency: one observation per
	// decided request (a window flush's cost split evenly across its
	// decisions), with exact count, sum and max and sampled percentiles.
	Latency *stats.Reservoir
}

// MeanResponse returns the average decision latency per request.
func (r *PlatformResult) MeanResponse() time.Duration { return r.Latency.Mean() }

// Result is the outcome of a simulation run.
type Result struct {
	Platforms map[core.PlatformID]*PlatformResult
	// Lent counts workers each platform lent to others through the hub.
	Lent map[core.PlatformID]int
	// Recycled counts worker re-arrivals (only with ServiceTicks > 0),
	// including workers whose re-arrival falls after the last stream
	// event: they are flushed into their waiting lists at end of stream
	// so the count matches the number of completed services.
	Recycled int
}

// sortedIDs returns the platform ids in ascending order. The float sums
// below go through it: in map order, with three or more platforms,
// their last bit would vary from one call to the next.
func (r *Result) sortedIDs() []core.PlatformID {
	ids := make([]core.PlatformID, 0, len(r.Platforms))
	for id := range r.Platforms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TotalRevenue sums revenue across platforms.
func (r *Result) TotalRevenue() float64 {
	t := 0.0
	for _, id := range r.sortedIDs() {
		t += r.Platforms[id].Stats.Revenue
	}
	return t
}

// TotalServed sums served requests across platforms.
func (r *Result) TotalServed() int {
	t := 0
	for _, p := range r.Platforms {
		t += p.Stats.Served
	}
	return t
}

// CooperativeServed sums accepted cooperative requests (|CoR|).
func (r *Result) CooperativeServed() int {
	t := 0
	for _, p := range r.Platforms {
		t += p.Stats.ServedOuter
	}
	return t
}

// AcceptanceRatio aggregates AcpRt across platforms.
func (r *Result) AcceptanceRatio() float64 {
	att, ok := 0, 0
	for _, p := range r.Platforms {
		att += p.Stats.CoopAttempted
		ok += p.Stats.ServedOuter
	}
	if att == 0 {
		return 0
	}
	return float64(ok) / float64(att)
}

// MeanPaymentRate aggregates the outer payment rate v'/v across
// platforms' cooperative assignments.
func (r *Result) MeanPaymentRate() float64 {
	sum, n := 0.0, 0
	for _, id := range r.sortedIDs() {
		p := r.Platforms[id]
		sum += p.Stats.PaymentRate
		n += p.Stats.ServedOuter
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Validate re-checks every platform's matching.
func (r *Result) Validate() error {
	for id, p := range r.Platforms {
		if err := p.Matching.Validate(); err != nil {
			return fmt.Errorf("platform %d: %w", id, err)
		}
	}
	return nil
}

// Run executes the stream against one matcher per platform, cooperating
// through a shared hub. The factory is called once per platform present
// in the stream.
func Run(stream *core.Stream, factory MatcherFactory, cfg Config) (*Result, error) {
	return RunContext(context.Background(), stream, factory, cfg)
}

// cancelCheckMask throttles the context poll in the event loop: the
// ctx.Err() call costs more than a cheap decision, so it runs every 64
// events. Cancellation latency stays far below any human timeout.
const cancelCheckMask = 63

// RunContext is Run with cooperative cancellation: when ctx is canceled
// mid-stream, the simulation stops at the next event boundary and
// returns the partial Result accumulated so far alongside an error
// wrapping ctx.Err() (test with errors.Is(err, context.Canceled) or
// context.DeadlineExceeded).
func RunContext(ctx context.Context, stream *core.Stream, factory MatcherFactory, cfg Config) (res *Result, err error) {
	run := func(ctx context.Context) {
		var eng *Engine
		if eng, err = NewEngine(stream.Platforms(), factory, cfg); err != nil {
			return
		}
		// Recycled workers are minted above the stream's own IDs.
		eng.nextID = stream.MaxWorkerID()
		res, err = eng.run(ctx, stream.Events())
	}
	if cfg.ProfileLabel != "" {
		pprof.Do(ctx, pprof.Labels("crossmatch.run", cfg.ProfileLabel), run)
	} else {
		run(ctx)
	}
	return res, err
}

// slot is what the event loop reaches for one platform: its matcher,
// its result and its latency label (empty without a collector). check
// finds an event's slot with slotOf and the rest of the event is
// decided and folded through it.
type slot struct {
	matcher online.Matcher
	res     *PlatformResult
	label   string
	// rec opens and closes the span of every request the matcher
	// decides on arrival; nil untraced and for a windowed matcher, which
	// spans its decisions at flush time.
	rec *trace.Recorder
}

// windowedEntry pairs a windowed matcher with its platform's slot.
type windowedEntry struct {
	s *slot
	m online.WindowedMatcher
}

// NewEngine builds an engine for the given platform set — hub, matchers,
// result slots. The order of pids determines per-platform RNG
// derivation: pass ascending IDs (stream.Platforms() order) for parity
// with stream runs. The matcher factory is the same one Run takes;
// threshold algorithms need their a-priori max value folded into the
// factory by the caller.
func NewEngine(pids []core.PlatformID, factory MatcherFactory, cfg Config) (*Engine, error) {
	if len(pids) == 0 {
		return nil, fmt.Errorf("platform: no platforms to run")
	}
	e := &Engine{
		cfg:    cfg,
		hub:    NewHub(),
		pids:   append([]core.PlatformID(nil), pids...),
		slots:  make([]slot, len(pids)),
		res:    &Result{Platforms: map[core.PlatformID]*PlatformResult{}},
		nextID: RecycleIDBase,
	}
	e.hub.CoopDisabled = cfg.DisableCoop

	root := rand.New(rand.NewSource(cfg.Seed))
	for i, pid := range e.pids {
		rng := rand.New(rand.NewSource(root.Int63()))
		m := factory(pid, e.hub.ViewFor(pid), rng)
		if err := e.hub.RegisterPlatform(pid, m.Pool()); err != nil {
			return nil, err
		}
		sl := &e.slots[i]
		*sl = slot{matcher: m, res: &PlatformResult{
			ID: pid, Name: m.Name(), Matching: core.NewMatching(),
			Latency: stats.NewReservoir(0, cfg.Seed^int64(pid)),
		}}
		e.res.Platforms[pid] = sl.res
		if wm, ok := m.(online.WindowedMatcher); ok {
			e.windowed = append(e.windowed, windowedEntry{s: sl, m: wm})
		}
	}

	var inj *fault.Injector
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		inj = fault.New(cfg.Faults, cfg.Seed, e.pids, cfg.Metrics)
		e.hub.SetFaults(inj)
	}

	if cfg.Trace != nil {
		recs := make([]*trace.Recorder, len(e.pids))
		for i, pid := range e.pids {
			sl := &e.slots[i]
			recs[i] = cfg.Trace.Recorder(cfg.Seed, pid, sl.matcher.Name())
			if tb, ok := sl.matcher.(traceBinder); ok {
				tb.BindTrace(recs[i])
			}
			if _, ok := sl.matcher.(online.WindowedMatcher); !ok {
				sl.rec = recs[i]
			}
		}
		if inj != nil {
			// Attribute injected faults and breaker transitions to the
			// decision in flight on the viewing platform; observation never
			// alters fault outcomes or RNG draws.
			inj.SetObserver(func(viewer, partner core.PlatformID, ev fault.Event) {
				recs[slices.Index(e.pids, viewer)].Fault(partner, string(ev.Kind), ev.Latency)
			})
		}
	}

	cfg.Metrics.Add(metrics.Runs, 1)
	// Per-platform latency labels are built once; the hot loop must not
	// format strings.
	if cfg.Metrics != nil {
		for i, pid := range e.pids {
			e.slots[i].label = fmt.Sprintf("platform-%d", pid)
		}
	}
	return e, nil
}

// slotOf returns the platform's slot, or nil for a platform the engine
// was not built with: a scan of the few platforms, in place of a map.
func (e *Engine) slotOf(pid core.PlatformID) *slot {
	for i, p := range e.pids {
		if p == pid {
			return &e.slots[i]
		}
	}
	return nil
}

// deliver puts a worker (fresh or recycled) into its platform's waiting
// list, which every cooperating platform sees through the hub.
func (e *Engine) deliver(w *core.Worker, s *slot) error {
	if err := s.matcher.Pool().Add(w); err != nil {
		return fmt.Errorf("platform: worker %d: %w", w.ID, err)
	}
	return nil
}

// foldPricing folds every matcher's pricing-quoter counters into the
// run's metrics collector.
func (e *Engine) foldPricing() {
	if e.cfg.Metrics == nil {
		return
	}
	for i := range e.slots {
		if pp, ok := e.slots[i].matcher.(pricingStatsProvider); ok {
			e.cfg.Metrics.AddPricing(pp.PricingStats())
		}
	}
}

type recycleHeap []*core.Worker

func (h recycleHeap) Len() int           { return len(h) }
func (h recycleHeap) Less(i, j int) bool { return h[i].Arrival < h[j].Arrival }
func (h recycleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *recycleHeap) Push(x interface{}) {
	*h = append(*h, x.(*core.Worker))
}
func (h *recycleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	*h = old[:n-1]
	return w
}
