// Package metrics is the observability layer of the simulation engine:
// lock-free counters for the matching funnel, the fault layer and the
// write-ahead log, the pricing quoters' folded
// statistics, and per-label decision-latency distributions built on
// stats.Reservoir.
//
// The counters are a table: a Counter constant indexes one array of
// atomics, and Add, Merge and Snapshot are written once over that array.
// A new counter is two edits — its constant below and, at the same
// position, its field in Counters (the JSON key); init refuses a build
// where the two lists differ in length.
//
// One Collector is shared by every platform of a run — or by every run
// of a whole experiment — so all methods are safe for concurrent use and
// a nil *Collector is a no-op everywhere, keeping the instrumented hot
// paths free of conditionals at the call sites.
package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/pricing"
	"crossmatch/internal/stats"
)

// Counter names one counter of a Collector. The constants are in the
// order of Counters' fields: constant k is reported in field k.
type Counter int

const (
	// The matching funnel: simulation runs feeding the collector,
	// requests served by an inner worker, accepted cooperative requests,
	// unserved requests, requests offered to outer workers, and worker
	// acceptance probes.
	Runs Counter = iota
	InnerMatches
	OuterMatches
	Rejections
	CoopAttempts
	AcceptanceProbes
	// ClaimConflicts is never counted: a claim finds its worker's pool
	// and removes it with nothing running in between. It stays because
	// the frozen bench/layers.go reads it. ClaimRetries counts every lost
	// claim a matcher retried past, injected claim faults included.
	ClaimConflicts
	ClaimRetries

	// Fault injection and resilience (internal/fault; all zero without a
	// fault plan): injected probe latency spikes, dropped probes,
	// transient claim errors, and calls that landed inside a scheduled
	// outage; retries of a cooperation call after a transient failure and
	// calls abandoned at their virtual deadline; breaker transitions
	// (closed or half-open → open, open → half-open trial, trial
	// succeeded → closed) and calls an open breaker refused outright —
	// the degradation signal: inner-only against that partner.
	FaultLatencySpikes
	FaultDroppedProbes
	FaultClaimErrors
	FaultOutageHits
	ProbeRetries
	ProbeTimeouts
	BreakerOpened
	BreakerHalfOpened
	BreakerClosed
	BreakerShortCircuits

	// Durability (internal/wal; all zero without -wal-dir): appends and
	// the payload bytes they logged, fsyncs and their cumulative
	// duration, snapshot manifests written, crash recoveries and the
	// logged events they re-drove through a fresh engine.
	WALAppends
	WALBytes
	WALFsyncs
	WALFsyncNs
	WALSnapshots
	WALRecoveries
	WALRecoveredEvents

	// ShardStalls is inert, always 0: kept only because the frozen
	// bench/probes.go reads Counters.ShardStalls; the next benchmark PR
	// deletes it with the shard.* rows.
	ShardStalls

	// NumCounters is the number of counters, not one of them.
	NumCounters
)

func init() {
	if n := reflect.TypeOf(Counters{}).NumField(); n != int(NumCounters) {
		panic(fmt.Sprintf("metrics: %d Counter constants, %d Counters fields", NumCounters, n))
	}
}

// Collector accumulates counters and latency distributions.
// The zero value is not usable; call New.
type Collector struct {
	n [NumCounters]atomic.Int64

	mu sync.Mutex
	// pricing is the quoters' statistics, folded in by the platform
	// runtime when a run's matchers wind down.
	pricing pricing.Stats
	latency map[string]*stats.Reservoir
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{latency: make(map[string]*stats.Reservoir)}
}

// Add adds d to counter k; counters only grow, so a d that is not
// positive is ignored.
func (c *Collector) Add(k Counter, d int64) {
	if c != nil && d > 0 {
		c.n[k].Add(d)
	}
}

// ShardSnapshot is inert: the element type of Engine.ShardStats' nil
// result, kept only because the frozen bench/probes.go names it and
// these two fields; the next benchmark PR deletes it with the shard.*
// rows.
type ShardSnapshot struct {
	BoundaryEvents int64
	Borrows        int64
}

// PricingStats is the pricing-quoter section of a Report: the quoters'
// summed pricing.Stats and the share of acceptance-probability
// evaluations the per-quote payment cache answered. All zero for runs
// that never price a cooperative request.
type PricingStats struct {
	pricing.Stats
	TableHitRate float64 `json:"table_hit_rate"`
}

// AddPricing folds one quoter's cumulative counters into the collector.
// The platform runtime calls it once per matcher at the end of a run;
// mid-run snapshots therefore show the pricing section still at zero.
func (c *Collector) AddPricing(p pricing.Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.pricing.Add(p)
	c.mu.Unlock()
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

// Merge folds every counter, the pricing section and every latency
// distribution of from into c. A harness that hands one run a private
// collector, to read that run's counters on their own, calls it
// afterwards so a shared collector still sees every run. from must be
// quiescent.
func (c *Collector) Merge(from *Collector) {
	if c == nil || from == nil {
		return
	}
	for k := range c.n {
		c.n[k].Add(from.n[k].Load())
	}
	from.mu.Lock()
	c.mu.Lock()
	c.pricing.Add(from.pricing)
	for label, r := range from.latency {
		c.reservoir(label).Merge(r)
	}
	c.mu.Unlock()
	from.mu.Unlock()
}

// Counters is the counter section of a Report: one field per Counter
// constant, in the constants' order; what each counts is said there.
type Counters struct {
	Runs             int64 `json:"runs"`
	InnerMatches     int64 `json:"inner_matches"`
	OuterMatches     int64 `json:"outer_matches"`
	Rejections       int64 `json:"rejections"`
	CoopAttempts     int64 `json:"coop_attempts"`
	AcceptanceProbes int64 `json:"acceptance_probes"`
	ClaimConflicts   int64 `json:"claim_conflicts"`
	ClaimRetries     int64 `json:"claim_retries"`

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

	WALAppends         int64 `json:"wal_appends"`
	WALBytes           int64 `json:"wal_bytes"`
	WALFsyncs          int64 `json:"wal_fsyncs"`
	WALFsyncNs         int64 `json:"wal_fsync_ns"`
	WALSnapshots       int64 `json:"wal_snapshots"`
	WALRecoveries      int64 `json:"wal_recoveries"`
	WALRecoveredEvents int64 `json:"wal_recovered_events"`

	ShardStalls int64 `json:"shard_stalls"`
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
}

// Snapshot returns a consistent copy of the collector's state, latency
// labels sorted for stable output.
func (c *Collector) Snapshot() Report {
	if c == nil {
		return Report{}
	}
	var rep Report
	fields := reflect.ValueOf(&rep.Counters).Elem()
	for k := range c.n {
		fields.Field(k).SetInt(c.n[k].Load())
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	c.mu.Lock()
	rep.Pricing.Stats = c.pricing
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
	if p := &rep.Pricing; p.ProbEvals > 0 {
		p.TableHitRate = float64(p.TableHits) / float64(p.ProbEvals)
	}
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
