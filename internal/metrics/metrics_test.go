package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmatch/internal/pricing"
	"crossmatch/internal/stats"
)

// latencies returns a distribution of the given observations, for a
// test to fold into a collector with MergeLatency.
func latencies(ds ...time.Duration) *stats.Reservoir {
	r := stats.NewReservoir(0, 1)
	for _, d := range ds {
		r.Observe(d)
	}
	return r
}

// counterNames spells every Counter constant beside the JSON key it
// must be reported under: the enum and the Counters struct meet by
// position, this table checks they meet by name.
var counterNames = []struct {
	k   Counter
	key string
}{
	{Runs, "runs"}, {InnerMatches, "inner_matches"}, {OuterMatches, "outer_matches"},
	{Rejections, "rejections"}, {CoopAttempts, "coop_attempts"}, {AcceptanceProbes, "acceptance_probes"},
	{ClaimConflicts, "claim_conflicts"}, {ClaimRetries, "claim_retries"},
	{FaultLatencySpikes, "fault_latency_spikes"}, {FaultDroppedProbes, "fault_dropped_probes"},
	{FaultClaimErrors, "fault_claim_errors"}, {FaultOutageHits, "fault_outage_hits"},
	{ProbeRetries, "probe_retries"}, {ProbeTimeouts, "probe_timeouts"},
	{BreakerOpened, "breaker_opened"}, {BreakerHalfOpened, "breaker_half_opened"},
	{BreakerClosed, "breaker_closed"}, {BreakerShortCircuits, "breaker_short_circuits"},
	{WALAppends, "wal_appends"}, {WALBytes, "wal_bytes"}, {WALFsyncs, "wal_fsyncs"},
	{WALFsyncNs, "wal_fsync_ns"}, {WALSnapshots, "wal_snapshots"},
	{WALRecoveries, "wal_recoveries"}, {WALRecoveredEvents, "wal_recovered_events"},
	{ShardStalls, "shard_stalls"},
}

// TestCounterEnumMatchesJSONFields adds to one constant at a time and
// reads the report as JSON: the named key, and only it, must move. A
// constant without a Counters field (or the reverse) fails init; one
// missing here, or two fields swapped, fails this test.
func TestCounterEnumMatchesJSONFields(t *testing.T) {
	if len(counterNames) != int(NumCounters) {
		t.Fatalf("counterNames has %d rows for %d counters", len(counterNames), NumCounters)
	}
	for _, row := range counterNames {
		c := New()
		c.Add(row.k, 7)
		var buf bytes.Buffer
		if err := c.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Counters) != int(NumCounters) {
			t.Fatalf("report has %d counter keys for %d counters", len(doc.Counters), NumCounters)
		}
		if _, ok := doc.Counters[row.key]; !ok {
			t.Errorf("no %q key in the report", row.key)
		}
		for key, v := range doc.Counters {
			want := int64(0)
			if key == row.key {
				want = 7
			}
			if v != want {
				t.Errorf("Add(%d, 7), meant for %q: %q = %d, want %d", row.k, row.key, key, v, want)
			}
		}
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	for k := Counter(0); k < NumCounters; k++ {
		c.Add(k, 5)
	}
	c.AddPricing(pricing.Stats{ProbEvals: 1})
	c.MergeLatency(ProbeLatencyLabel, latencies(time.Millisecond))
	c.Merge(New())
	if rep := c.Snapshot(); rep.Counters != (Counters{}) || rep.Pricing != (PricingStats{}) || len(rep.Latencies) != 0 {
		t.Errorf("nil snapshot not empty: %+v", rep)
	}
}

func TestCountersAndLatency(t *testing.T) {
	c := New()
	c.Add(Runs, 1)
	c.Add(InnerMatches, 1)
	c.Add(InnerMatches, 1)
	c.Add(OuterMatches, 1)
	c.Add(Rejections, 1)
	c.Add(CoopAttempts, 1)
	c.Add(AcceptanceProbes, 7)
	c.Add(AcceptanceProbes, 0) // ignored
	c.MergeLatency("platform-1", latencies(2*time.Millisecond))
	c.MergeLatency("platform-1", latencies(4*time.Millisecond))
	c.MergeLatency("platform-2", latencies(time.Millisecond))
	c.MergeLatency("platform-3", nil)         // adds nothing
	c.MergeLatency("platform-3", latencies()) // adds nothing

	rep := c.Snapshot()
	want := Counters{Runs: 1, InnerMatches: 2, OuterMatches: 1, Rejections: 1, CoopAttempts: 1, AcceptanceProbes: 7}
	if rep.Counters != want {
		t.Errorf("counters = %+v, want %+v", rep.Counters, want)
	}
	if len(rep.Latencies) != 2 {
		t.Fatalf("latency labels = %d, want 2", len(rep.Latencies))
	}
	// Sorted by label.
	if rep.Latencies[0].Label != "platform-1" || rep.Latencies[1].Label != "platform-2" {
		t.Errorf("labels unsorted: %v, %v", rep.Latencies[0].Label, rep.Latencies[1].Label)
	}
	p1 := rep.Latencies[0]
	if p1.Count != 2 || p1.MeanMs != 3 || p1.MaxMs != 4 || p1.TotalMs != 6 {
		t.Errorf("platform-1 summary = %+v", p1)
	}
}

// Concurrent increments from many goroutines must tally exactly and stay
// race-free (this test is the -race canary for the engine's counters).
func TestConcurrentCollect(t *testing.T) {
	c := New()
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			label := "platform-1"
			if g%2 == 1 {
				label = "platform-2"
			}
			for i := 0; i < per; i++ {
				c.Add(InnerMatches, 1)
				c.Add(AcceptanceProbes, 2)
				c.MergeLatency(label, latencies(time.Duration(i)*time.Microsecond))
			}
		}(g)
	}
	wg.Wait()
	rep := c.Snapshot()
	if rep.Counters.InnerMatches != goroutines*per {
		t.Errorf("inner = %d, want %d", rep.Counters.InnerMatches, goroutines*per)
	}
	if rep.Counters.AcceptanceProbes != 2*goroutines*per {
		t.Errorf("probes = %d, want %d", rep.Counters.AcceptanceProbes, 2*goroutines*per)
	}
	total := int64(0)
	for _, l := range rep.Latencies {
		total += l.Count
	}
	if total != goroutines*per {
		t.Errorf("latency observations = %d, want %d", total, goroutines*per)
	}
}

func TestWriteJSONSchema(t *testing.T) {
	c := New()
	c.Add(InnerMatches, 1)
	c.MergeLatency("platform-1", latencies(time.Millisecond))
	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"inner_matches", "acceptance_probes", "p95_ms"} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON missing %q:\n%s", key, buf.String())
		}
	}
}

// TestClaimContentionCounters covers the claim-contention counters:
// claim conflicts and claim retries (non-positive filtered).
func TestClaimContentionCounters(t *testing.T) {
	c := New()
	c.Add(ClaimConflicts, 1)
	c.Add(ClaimConflicts, 1)
	c.Add(ClaimRetries, 3)
	c.Add(ClaimRetries, 0)
	c.Add(ClaimRetries, -2)
	rep := c.Snapshot()
	if rep.Counters.ClaimConflicts != 2 {
		t.Errorf("ClaimConflicts = %d, want 2", rep.Counters.ClaimConflicts)
	}
	if rep.Counters.ClaimRetries != 3 {
		t.Errorf("ClaimRetries = %d, want 3", rep.Counters.ClaimRetries)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"claim_conflicts", "claim_retries"} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON report missing %q", key)
		}
	}
}

// TestMergeCarriesEveryCounter gives every counter of a donor a distinct
// value, the pricing section and a latency label too, and merges it into
// a collector that already holds some of each.
func TestMergeCarriesEveryCounter(t *testing.T) {
	from, into := New(), New()
	fillEveryCounter(from)
	into.Add(InnerMatches, 1)
	into.AddPricing(pricing.Stats{ProbEvals: 2})
	into.MergeLatency("platform-1", latencies(time.Millisecond))
	into.Merge(from)
	into.Merge(nil)
	(*Collector)(nil).Merge(from)

	for k := Counter(0); k < NumCounters; k++ {
		want := from.n[k].Load()
		if want == 0 {
			t.Fatalf("donor counter %d is zero", k)
		}
		if k == InnerMatches {
			want++
		}
		if got := into.n[k].Load(); got != want {
			t.Errorf("counter %d = %d after Merge, want %d", k, got, want)
		}
	}
	want := from.pricing
	want.ProbEvals += 2
	if got := into.pricing; got != want {
		t.Errorf("pricing after Merge = %+v, want %+v", got, want)
	}
	rep := into.Snapshot()
	if lat := rep.Latencies; len(lat) != 1 || lat[0].Count != 2 || lat[0].MaxMs != 3 {
		t.Errorf("latencies after Merge = %+v, want one label with 2 observations, max 3 ms", lat)
	}
}
