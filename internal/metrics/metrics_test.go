package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.MatchInner()
	c.MatchOuter()
	c.Reject()
	c.CoopAttempt()
	c.AddProbes(5)
	c.RunStarted()
	c.ObserveLatency("x", time.Millisecond)
	if rep := c.Snapshot(); rep.Counters != (Counters{}) || len(rep.Latencies) != 0 {
		t.Errorf("nil snapshot not empty: %+v", rep)
	}
}

func TestCountersAndLatency(t *testing.T) {
	c := New()
	c.RunStarted()
	c.MatchInner()
	c.MatchInner()
	c.MatchOuter()
	c.Reject()
	c.CoopAttempt()
	c.AddProbes(7)
	c.AddProbes(0) // ignored
	c.ObserveLatency("platform-1", 2*time.Millisecond)
	c.ObserveLatency("platform-1", 4*time.Millisecond)
	c.ObserveLatency("platform-2", time.Millisecond)

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
				c.MatchInner()
				c.AddProbes(2)
				c.ObserveLatency(label, time.Duration(i)*time.Microsecond)
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
	c.MatchInner()
	c.ObserveLatency("platform-1", time.Millisecond)
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
// claim conflicts and claim retries (nil-safe, non-positive filtered).
func TestClaimContentionCounters(t *testing.T) {
	var nilC *Collector
	nilC.ClaimConflict()
	nilC.AddClaimRetries(3)

	c := New()
	c.ClaimConflict()
	c.ClaimConflict()
	c.AddClaimRetries(3)
	c.AddClaimRetries(0)
	c.AddClaimRetries(-2)
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

// TestMergeCarriesEveryCounter sets every atomic counter of a donor to a
// distinct value by reflection, so a counter added to Collector but
// forgotten in Merge fails here rather than vanishing from a report.
func TestMergeCarriesEveryCounter(t *testing.T) {
	from, into := New(), New()
	counter := reflect.TypeOf((*atomic.Int64)(nil)).Elem()
	fv := reflect.ValueOf(from).Elem()
	n := 0
	for i := 0; i < fv.NumField(); i++ {
		if fv.Type().Field(i).Type == counter {
			n++
			(*atomic.Int64)(fv.Field(i).Addr().UnsafePointer()).Store(int64(n))
		}
	}
	if n == 0 {
		t.Fatal("no counters found")
	}
	from.ObserveLatency("platform-1", 3*time.Millisecond)
	into.MatchInner()
	into.ObserveLatency("platform-1", time.Millisecond)
	into.Merge(from)
	into.Merge(nil)
	(*Collector)(nil).Merge(from)

	iv := reflect.ValueOf(into).Elem()
	for i := 0; i < iv.NumField(); i++ {
		if iv.Type().Field(i).Type != counter {
			continue
		}
		got := (*atomic.Int64)(iv.Field(i).Addr().UnsafePointer()).Load()
		want := (*atomic.Int64)(fv.Field(i).Addr().UnsafePointer()).Load()
		if name := iv.Type().Field(i).Name; name == "innerMatches" {
			want++
		}
		if got != want {
			t.Errorf("%s = %d after Merge, want %d", iv.Type().Field(i).Name, got, want)
		}
	}
	lat := into.Snapshot().Latencies
	if len(lat) != 1 || lat[0].Count != 2 || lat[0].MaxMs != 3 {
		t.Errorf("latencies after Merge = %+v, want one label with 2 observations, max 3 ms", lat)
	}
}
