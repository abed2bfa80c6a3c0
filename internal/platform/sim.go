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
// pricing quoter's counters; FoldFunnel folds them into a collector.
type pricingStatsProvider interface{ PricingStats() pricing.Stats }

// Config controls a simulation run. Seed, ServiceTicks, DisableCoop and
// Faults are a Spec's engine settings, documented there and filled in
// by Spec.Lower; the rest watch the run without deciding its bits.
type Config struct {
	Seed         int64
	ServiceTicks core.Time
	DisableCoop  bool
	Faults       *fault.Plan
	// Metrics, when non-nil, receives the whole run once, folded in by
	// Engine.Finish (see FoldFunnel): the run count, the matching funnel,
	// per-platform decision latencies, pricing and fault counts. Nothing
	// writes it while the run goes on. The collector is safe to share
	// across concurrent runs.
	Metrics *metrics.Collector
	// ProfileLabel, when non-empty, tags the run's goroutine with a
	// "crossmatch.run" pprof label so CPU profiles of a parallel
	// experiment attribute samples to individual runs.
	ProfileLabel string
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

// PlatformResult aggregates one platform's outcomes. Matching is the
// one record of what the platform served; Engine.Finish reads Stats
// off it.
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
	// Lent counts the workers each platform lent to others: the outer
	// assignments its workers serve, counted by Engine.Finish. Never nil.
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

// TotalRevenue sums the platforms' Matching revenue, in ascending
// platform ID: the one sum of a run's revenue.
func (r *Result) TotalRevenue() float64 {
	t := 0.0
	for _, id := range r.sortedIDs() {
		t += r.Platforms[id].Matching.Revenue()
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

// Validate re-checks every platform's matching, each assignment in
// full (Assignment.Validate), and that no worker serves on two
// platforms.
func (r *Result) Validate() error {
	ids := r.sortedIDs()
	for _, id := range ids {
		p := r.Platforms[id]
		if err := p.Matching.Validate(); err != nil {
			return fmt.Errorf("platform %d: %w", id, err)
		}
		for _, a := range p.Matching.Assignments() {
			for _, other := range ids {
				if other != id && r.Platforms[other].Matching.HasWorker(a.Worker.ID) {
					return fmt.Errorf("worker %d serves on platforms %d and %d", a.Worker.ID, id, other)
				}
			}
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
// its result and its decisions' acceptance probes and lost claims. check
// finds an event's slot with slotOf and the rest of the event is
// decided and folded through it.
type slot struct {
	matcher              online.Matcher
	res                  *PlatformResult
	probes, claimRetries int64
	// win is the matcher as a windowed one (BatchCOM); nil for a greedy
	// matcher.
	win online.WindowedMatcher
	// rec opens and closes the span of every request the matcher
	// decides on arrival; nil untraced and for a windowed matcher, which
	// spans its decisions at flush time.
	rec *trace.Recorder
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
			sl.win = wm
			e.windowed = append(e.windowed, sl)
		}
	}

	var recs []*trace.Recorder
	if cfg.Trace != nil {
		recs = make([]*trace.Recorder, len(e.pids))
		for i, pid := range e.pids {
			sl := &e.slots[i]
			recs[i] = cfg.Trace.Recorder(cfg.Seed, pid, sl.matcher.Name())
			if tb, ok := sl.matcher.(traceBinder); ok {
				tb.BindTrace(recs[i])
			}
			if sl.win == nil {
				sl.rec = recs[i]
			}
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		// Injected faults land in the span of the decision in flight on
		// the viewing platform; recording never draws.
		e.hub.faults = fault.New(cfg.Faults, cfg.Seed, e.pids, recs)
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
