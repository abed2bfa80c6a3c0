// Package metrics is the observability layer of the simulation engine:
// lock-free counters for the matching funnel (inner/outer matches,
// cooperative attempts, acceptance probes, rejections) and per-label
// decision-latency distributions built on stats.Reservoir.
//
// One Collector is shared by every platform of a run — or by every run
// of a whole experiment — so all methods are safe for concurrent use and
// a nil *Collector is a no-op everywhere, keeping the instrumented hot
// paths free of conditionals at the call sites.
package metrics

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/stats"
)

// Collector accumulates counters and latency distributions.
// The zero value is not usable; call New.
type Collector struct {
	innerMatches   atomic.Int64
	outerMatches   atomic.Int64
	rejections     atomic.Int64
	coopAttempts   atomic.Int64
	probes         atomic.Int64
	runs           atomic.Int64
	claimConflicts atomic.Int64
	claimRetries   atomic.Int64

	// Fault-injection and resilience counters (internal/fault); all stay
	// zero when no fault plan is configured.
	faultLatency        atomic.Int64
	faultDrops          atomic.Int64
	faultClaimErrors    atomic.Int64
	faultOutageHits     atomic.Int64
	probeRetries        atomic.Int64
	probeTimeouts       atomic.Int64
	breakerOpened       atomic.Int64
	breakerHalfOpened   atomic.Int64
	breakerClosed       atomic.Int64
	breakerShortCircuit atomic.Int64

	// Durability counters (internal/wal): write-ahead log appends and
	// fsyncs, snapshot manifests written, and crash-recovery re-drives.
	// All stay zero when the serving layer runs without -wal-dir.
	walAppends         atomic.Int64
	walBytes           atomic.Int64
	walFsyncs          atomic.Int64
	walFsyncNs         atomic.Int64
	walSnapshots       atomic.Int64
	walRecoveries      atomic.Int64
	walRecoveredEvents atomic.Int64

	// Fleet-router counters (internal/route): lines forwarded to shards,
	// transport-level retries, hedged duplicate sends, and lines served
	// by a failover shard instead of their rendezvous owner. All stay
	// zero outside cmd/comroute.
	routeForwards  atomic.Int64
	routeRetries   atomic.Int64
	routeHedges    atomic.Int64
	routeFailovers atomic.Int64

	// Pricing-quoter counters (internal/pricing Quoter stats), folded in
	// by the platform runtime when a run's matchers wind down.
	pricingRevenueQuotes    atomic.Int64
	pricingThresholdQuotes  atomic.Int64
	pricingMonteCarloQuotes atomic.Int64
	pricingProbEvals        atomic.Int64
	pricingTableHits        atomic.Int64
	pricingScratchReuses    atomic.Int64
	pricingScratchAllocs    atomic.Int64

	// Sharded-engine counters (internal/shard + platform's sharded
	// runtime); all stay zero on unsharded runs.
	crossShardBorrows atomic.Int64
	shardStalls       atomic.Int64

	mu      sync.Mutex
	latency map[string]*stats.Reservoir
	shards  []ShardSnapshot
}

// ShardSnapshot is one shard's slice of a sharded engine's state: how
// many events it applied, its live queue depth (zero for completed bulk
// runs), the boundary-crossing events it owned, and its cross-shard
// borrow outcomes. Folded into Report.Shards by Collector.RecordShards.
type ShardSnapshot struct {
	Shard          int   `json:"shard"`
	Applied        int64 `json:"applied"`
	QueueDepth     int64 `json:"queue_depth"`
	BoundaryEvents int64 `json:"boundary_events"`
	Borrows        int64 `json:"cross_shard_borrows"`
	ClaimConflicts int64 `json:"cross_shard_claim_conflicts"`
	Degraded       int64 `json:"degraded_boundary_events"`
}

// RecordShards stores the per-shard snapshot section the next Snapshot
// call reports; each call replaces the previous set (the serving layer
// refreshes it on every /v1/metrics scrape).
func (c *Collector) RecordShards(shards []ShardSnapshot) {
	if c == nil {
		return
	}
	cp := append([]ShardSnapshot(nil), shards...)
	c.mu.Lock()
	c.shards = cp
	c.mu.Unlock()
}

// CrossShardBorrow records a cooperative claim committed against a
// worker owned by another shard of a geo-sharded engine — the commit
// phase of the claim protocol succeeding across a shard boundary.
func (c *Collector) CrossShardBorrow() {
	if c != nil {
		c.crossShardBorrows.Add(1)
	}
}

// ShardStall records a sharded-engine gate wait that hit its wall-clock
// watchdog and proceeded degraded.
func (c *Collector) ShardStall() {
	if c != nil {
		c.shardStalls.Add(1)
	}
}

// PricingStats is the pricing-quoter section of a Report: quote counts
// by method, acceptance-probability volume (ProbEvals: per-worker
// pr(v', w) evaluations plus Monte-Carlo dichotomy probes answered from
// the per-quote payment cache; TableHits: the latter alone), and scratch
// reuse. All zero for runs that never price a cooperative request.
type PricingStats struct {
	RevenueQuotes    int64   `json:"revenue_quotes"`
	ThresholdQuotes  int64   `json:"threshold_quotes"`
	MonteCarloQuotes int64   `json:"monte_carlo_quotes"`
	ProbEvals        int64   `json:"prob_evals"`
	TableHits        int64   `json:"table_hits"`
	TableHitRate     float64 `json:"table_hit_rate"`
	ScratchReuses    int64   `json:"scratch_reuses"`
	ScratchAllocs    int64   `json:"scratch_allocs"`
}

// AddPricing folds one quoter's cumulative counters into the collector.
// The platform runtime calls it once per matcher at the end of a run;
// mid-run snapshots therefore show the pricing section still at zero.
func (c *Collector) AddPricing(p PricingStats) {
	if c == nil {
		return
	}
	c.pricingRevenueQuotes.Add(p.RevenueQuotes)
	c.pricingThresholdQuotes.Add(p.ThresholdQuotes)
	c.pricingMonteCarloQuotes.Add(p.MonteCarloQuotes)
	c.pricingProbEvals.Add(p.ProbEvals)
	c.pricingTableHits.Add(p.TableHits)
	c.pricingScratchReuses.Add(p.ScratchReuses)
	c.pricingScratchAllocs.Add(p.ScratchAllocs)
}

// Pricing returns the collector's accumulated pricing-quoter counters.
func (c *Collector) Pricing() PricingStats {
	if c == nil {
		return PricingStats{}
	}
	p := PricingStats{
		RevenueQuotes:    c.pricingRevenueQuotes.Load(),
		ThresholdQuotes:  c.pricingThresholdQuotes.Load(),
		MonteCarloQuotes: c.pricingMonteCarloQuotes.Load(),
		ProbEvals:        c.pricingProbEvals.Load(),
		TableHits:        c.pricingTableHits.Load(),
		ScratchReuses:    c.pricingScratchReuses.Load(),
		ScratchAllocs:    c.pricingScratchAllocs.Load(),
	}
	if p.ProbEvals > 0 {
		p.TableHitRate = float64(p.TableHits) / float64(p.ProbEvals)
	}
	return p
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{latency: make(map[string]*stats.Reservoir)}
}

// MatchInner records a request served by an inner worker.
func (c *Collector) MatchInner() {
	if c != nil {
		c.innerMatches.Add(1)
	}
}

// MatchOuter records an accepted cooperative request.
func (c *Collector) MatchOuter() {
	if c != nil {
		c.outerMatches.Add(1)
	}
}

// Reject records an unserved request.
func (c *Collector) Reject() {
	if c != nil {
		c.rejections.Add(1)
	}
}

// CoopAttempt records a request offered to outer workers.
func (c *Collector) CoopAttempt() {
	if c != nil {
		c.coopAttempts.Add(1)
	}
}

// AddProbes records n worker acceptance probes.
func (c *Collector) AddProbes(n int) {
	if c != nil && n > 0 {
		c.probes.Add(int64(n))
	}
}

// ClaimConflict records a cross-platform claim lost to a concurrent
// assignment — the hub's CAS or pool removal observed the worker already
// taken. Zero unless the sharded engine's shards race for a worker.
func (c *Collector) ClaimConflict() {
	if c != nil {
		c.claimConflicts.Add(1)
	}
}

// AddClaimRetries records n retries of the claim loop (a request that
// lost n claims before settling on a worker or giving up).
func (c *Collector) AddClaimRetries(n int) {
	if c != nil && n > 0 {
		c.claimRetries.Add(int64(n))
	}
}

// FaultLatency records an injected probe latency spike.
func (c *Collector) FaultLatency() {
	if c != nil {
		c.faultLatency.Add(1)
	}
}

// FaultDrop records an injected dropped probe.
func (c *Collector) FaultDrop() {
	if c != nil {
		c.faultDrops.Add(1)
	}
}

// FaultClaimError records an injected transient claim error.
func (c *Collector) FaultClaimError() {
	if c != nil {
		c.faultClaimErrors.Add(1)
	}
}

// FaultOutageHit records a probe or claim that landed inside a
// scheduled platform outage window.
func (c *Collector) FaultOutageHit() {
	if c != nil {
		c.faultOutageHits.Add(1)
	}
}

// ProbeRetry records one retry of a cooperation call (probe or claim)
// after a transient injected failure.
func (c *Collector) ProbeRetry() {
	if c != nil {
		c.probeRetries.Add(1)
	}
}

// ProbeTimeout records a cooperation call abandoned because its virtual
// deadline was exhausted by injected latency and backoff.
func (c *Collector) ProbeTimeout() {
	if c != nil {
		c.probeTimeouts.Add(1)
	}
}

// BreakerOpened records a circuit breaker opening — from closed after a
// consecutive-failure run, or from half-open after a failed trial.
func (c *Collector) BreakerOpened() {
	if c != nil {
		c.breakerOpened.Add(1)
	}
}

// BreakerHalfOpened records an open breaker admitting a half-open trial
// call after its cooldown.
func (c *Collector) BreakerHalfOpened() {
	if c != nil {
		c.breakerHalfOpened.Add(1)
	}
}

// BreakerClosed records a breaker closing after a successful half-open
// trial — the partner recovered.
func (c *Collector) BreakerClosed() {
	if c != nil {
		c.breakerClosed.Add(1)
	}
}

// BreakerShortCircuit records a cooperation call refused outright
// because the partner's breaker was open — the degradation signal: the
// platform matched inner-only against that partner for this request.
func (c *Collector) BreakerShortCircuit() {
	if c != nil {
		c.breakerShortCircuit.Add(1)
	}
}

// WALAppend records one write-ahead log append of n payload bytes.
func (c *Collector) WALAppend(n int64) {
	if c != nil {
		c.walAppends.Add(1)
		c.walBytes.Add(n)
	}
}

// WALFsync records one write-ahead log fsync and its duration.
func (c *Collector) WALFsync(d time.Duration) {
	if c != nil {
		c.walFsyncs.Add(1)
		c.walFsyncNs.Add(d.Nanoseconds())
	}
}

// WALSnapshot records one snapshot manifest written.
func (c *Collector) WALSnapshot() {
	if c != nil {
		c.walSnapshots.Add(1)
	}
}

// WALRecovered records one crash recovery that re-drove n logged
// events through a fresh engine.
func (c *Collector) WALRecovered(n int64) {
	if c != nil {
		c.walRecoveries.Add(1)
		c.walRecoveredEvents.Add(n)
	}
}

// RouteForward records n event lines forwarded to a shard.
func (c *Collector) RouteForward(n int64) {
	if c != nil {
		c.routeForwards.Add(n)
	}
}

// RouteRetry records one transport-level retry of a shard call.
func (c *Collector) RouteRetry() {
	if c != nil {
		c.routeRetries.Add(1)
	}
}

// RouteHedge records one hedged duplicate send racing a slow shard call.
func (c *Collector) RouteHedge() {
	if c != nil {
		c.routeHedges.Add(1)
	}
}

// RouteFailover records n lines routed to a failover shard because
// their rendezvous owner was unhealthy.
func (c *Collector) RouteFailover(n int64) {
	if c != nil {
		c.routeFailovers.Add(n)
	}
}

// ProbeLatencyLabel is the latency label under which injected probe
// latency spikes are reported (see ObserveProbeLatency).
const ProbeLatencyLabel = "hub/probe-latency"

// ObserveProbeLatency folds one injected probe latency spike into the
// ProbeLatencyLabel reservoir, exposing the injected-latency
// distribution next to the real decision latencies.
func (c *Collector) ObserveProbeLatency(d time.Duration) {
	c.ObserveLatency(ProbeLatencyLabel, d)
}

// RunStarted records one simulation run feeding the collector.
func (c *Collector) RunStarted() {
	if c != nil {
		c.runs.Add(1)
	}
}

// ObserveLatency folds one decision latency into the label's
// distribution (labels are typically per platform, e.g. "platform-1").
func (c *Collector) ObserveLatency(label string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.reservoir(label).Observe(d)
	c.mu.Unlock()
}

// reservoir returns the label's distribution, creating it on first use;
// the caller holds c.mu.
func (c *Collector) reservoir(label string) *stats.Reservoir {
	r, ok := c.latency[label]
	if !ok {
		// Seed the reservoir from the label so percentile sampling is
		// reproducible run-to-run for the same label set.
		h := fnv.New64a()
		io.WriteString(h, label)
		r = stats.NewReservoir(0, int64(h.Sum64()))
		c.latency[label] = r
	}
	return r
}

// Merge folds every counter and latency distribution of from into c.
// A harness that hands one run a private collector, to read that run's
// counters on their own, calls it afterwards so a shared collector still
// sees every run. from must be quiescent; its shard section, a
// per-engine snapshot rather than a tally, is not carried over.
func (c *Collector) Merge(from *Collector) {
	if c == nil || from == nil {
		return
	}
	for _, p := range [][2]*atomic.Int64{
		{&c.innerMatches, &from.innerMatches}, {&c.outerMatches, &from.outerMatches},
		{&c.rejections, &from.rejections}, {&c.coopAttempts, &from.coopAttempts},
		{&c.probes, &from.probes}, {&c.runs, &from.runs},
		{&c.claimConflicts, &from.claimConflicts}, {&c.claimRetries, &from.claimRetries},
		{&c.faultLatency, &from.faultLatency}, {&c.faultDrops, &from.faultDrops},
		{&c.faultClaimErrors, &from.faultClaimErrors}, {&c.faultOutageHits, &from.faultOutageHits},
		{&c.probeRetries, &from.probeRetries}, {&c.probeTimeouts, &from.probeTimeouts},
		{&c.breakerOpened, &from.breakerOpened}, {&c.breakerHalfOpened, &from.breakerHalfOpened},
		{&c.breakerClosed, &from.breakerClosed}, {&c.breakerShortCircuit, &from.breakerShortCircuit},
		{&c.walAppends, &from.walAppends}, {&c.walBytes, &from.walBytes},
		{&c.walFsyncs, &from.walFsyncs}, {&c.walFsyncNs, &from.walFsyncNs},
		{&c.walSnapshots, &from.walSnapshots}, {&c.walRecoveries, &from.walRecoveries},
		{&c.walRecoveredEvents, &from.walRecoveredEvents},
		{&c.routeForwards, &from.routeForwards}, {&c.routeRetries, &from.routeRetries},
		{&c.routeHedges, &from.routeHedges}, {&c.routeFailovers, &from.routeFailovers},
		{&c.crossShardBorrows, &from.crossShardBorrows}, {&c.shardStalls, &from.shardStalls},
	} {
		p[0].Add(p[1].Load())
	}
	c.AddPricing(from.Pricing())
	from.mu.Lock()
	c.mu.Lock()
	for label, r := range from.latency {
		c.reservoir(label).Merge(r)
	}
	c.mu.Unlock()
	from.mu.Unlock()
}

// Counters is the counter section of a Report.
type Counters struct {
	Runs             int64 `json:"runs"`
	InnerMatches     int64 `json:"inner_matches"`
	OuterMatches     int64 `json:"outer_matches"`
	Rejections       int64 `json:"rejections"`
	CoopAttempts     int64 `json:"coop_attempts"`
	AcceptanceProbes int64 `json:"acceptance_probes"`
	// ClaimConflicts counts claims that found the worker already taken
	// (sharded engine only), ClaimRetries every lost claim a matcher
	// retried past, injected claim faults included.
	ClaimConflicts int64 `json:"claim_conflicts"`
	ClaimRetries   int64 `json:"claim_retries"`
	// Fault-injection and resilience counters (all zero without a fault
	// plan): injected faults by kind, cooperation-call retries and
	// deadline timeouts, circuit-breaker transitions and the calls an
	// open breaker short-circuited into inner-only degradation.
	FaultLatencySpikes   int64 `json:"fault_latency_spikes"`
	FaultDroppedProbes   int64 `json:"fault_dropped_probes"`
	FaultClaimErrors     int64 `json:"fault_claim_errors"`
	FaultOutageHits      int64 `json:"fault_outage_hits"`
	ProbeRetries         int64 `json:"probe_retries"`
	ProbeTimeouts        int64 `json:"probe_timeouts"`
	BreakerOpened        int64 `json:"breaker_opened"`
	BreakerHalfOpened    int64 `json:"breaker_half_opened"`
	BreakerClosed        int64 `json:"breaker_closed"`
	BreakerShortCircuits int64 `json:"breaker_short_circuits"`
	// Durability counters (all zero without a write-ahead log): appends
	// and payload bytes logged, fsyncs with their cumulative duration,
	// snapshot manifests written, and crash-recovery re-drives.
	WALAppends         int64 `json:"wal_appends"`
	WALBytes           int64 `json:"wal_bytes"`
	WALFsyncs          int64 `json:"wal_fsyncs"`
	WALFsyncNs         int64 `json:"wal_fsync_ns"`
	WALSnapshots       int64 `json:"wal_snapshots"`
	WALRecoveries      int64 `json:"wal_recoveries"`
	WALRecoveredEvents int64 `json:"wal_recovered_events"`
	// Fleet-router counters (all zero outside cmd/comroute): lines
	// forwarded to shards, transport retries, hedged duplicate sends,
	// and failover-routed lines.
	RouteForwards  int64 `json:"route_forwards"`
	RouteRetries   int64 `json:"route_retries"`
	RouteHedges    int64 `json:"route_hedges"`
	RouteFailovers int64 `json:"route_failovers"`
	// Sharded-engine counters (all zero on unsharded runs): claims
	// committed across shard boundaries and gate waits that degraded on
	// the stall watchdog.
	CrossShardBorrows int64 `json:"cross_shard_borrows"`
	ShardStalls       int64 `json:"shard_stalls"`
}

// LatencySummary is one label's latency distribution in a Report.
type LatencySummary struct {
	Label   string  `json:"label"`
	Count   int64   `json:"count"`
	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	TotalMs float64 `json:"total_ms"`
}

// Report is the machine-readable snapshot of a collector
// (the schema behind combench's -metrics flag; see EXPERIMENTS.md).
type Report struct {
	Counters  Counters         `json:"counters"`
	Pricing   PricingStats     `json:"pricing"`
	Latencies []LatencySummary `json:"latencies"`
	// Shards is the per-shard section of a geo-sharded engine
	// (RecordShards); empty on unsharded runs.
	Shards []ShardSnapshot `json:"shards,omitempty"`
}

// Snapshot returns a consistent copy of the collector's state, latency
// labels sorted for stable output.
func (c *Collector) Snapshot() Report {
	if c == nil {
		return Report{}
	}
	rep := Report{Counters: Counters{
		Runs:             c.runs.Load(),
		InnerMatches:     c.innerMatches.Load(),
		OuterMatches:     c.outerMatches.Load(),
		Rejections:       c.rejections.Load(),
		CoopAttempts:     c.coopAttempts.Load(),
		AcceptanceProbes: c.probes.Load(),
		ClaimConflicts:   c.claimConflicts.Load(),
		ClaimRetries:     c.claimRetries.Load(),

		FaultLatencySpikes:   c.faultLatency.Load(),
		FaultDroppedProbes:   c.faultDrops.Load(),
		FaultClaimErrors:     c.faultClaimErrors.Load(),
		FaultOutageHits:      c.faultOutageHits.Load(),
		ProbeRetries:         c.probeRetries.Load(),
		ProbeTimeouts:        c.probeTimeouts.Load(),
		BreakerOpened:        c.breakerOpened.Load(),
		BreakerHalfOpened:    c.breakerHalfOpened.Load(),
		BreakerClosed:        c.breakerClosed.Load(),
		BreakerShortCircuits: c.breakerShortCircuit.Load(),

		WALAppends:         c.walAppends.Load(),
		WALBytes:           c.walBytes.Load(),
		WALFsyncs:          c.walFsyncs.Load(),
		WALFsyncNs:         c.walFsyncNs.Load(),
		WALSnapshots:       c.walSnapshots.Load(),
		WALRecoveries:      c.walRecoveries.Load(),
		WALRecoveredEvents: c.walRecoveredEvents.Load(),

		RouteForwards:  c.routeForwards.Load(),
		RouteRetries:   c.routeRetries.Load(),
		RouteHedges:    c.routeHedges.Load(),
		RouteFailovers: c.routeFailovers.Load(),

		CrossShardBorrows: c.crossShardBorrows.Load(),
		ShardStalls:       c.shardStalls.Load(),
	}, Pricing: c.Pricing()}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	c.mu.Lock()
	if len(c.shards) > 0 {
		rep.Shards = append([]ShardSnapshot(nil), c.shards...)
	}
	for label, r := range c.latency {
		// One sorted snapshot serves all three percentiles (Percentile
		// re-sorts the reservoir sample on every call).
		q := r.Quantiles([]float64{0.50, 0.95, 0.99})
		rep.Latencies = append(rep.Latencies, LatencySummary{
			Label:   label,
			Count:   r.Count(),
			MeanMs:  ms(r.Mean()),
			P50Ms:   ms(q[0]),
			P95Ms:   ms(q[1]),
			P99Ms:   ms(q[2]),
			MaxMs:   ms(r.Max()),
			TotalMs: ms(r.Sum()),
		})
	}
	c.mu.Unlock()
	sort.Slice(rep.Latencies, func(i, j int) bool {
		return rep.Latencies[i].Label < rep.Latencies[j].Label
	})
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
