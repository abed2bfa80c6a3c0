package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"crossmatch/internal/pricing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden.json from this run")

// fillEveryCounter sets the counter behind Counters' k-th field to
// 10·(k+1), the pricing section to seven distinct values and one latency
// label to one observation, so a document built from the collector shows
// where every number lands. internal/serve and internal/route fill
// theirs the same way.
func fillEveryCounter(c *Collector) {
	for k := Counter(0); k < NumCounters; k++ {
		c.Add(k, 10*(int64(k)+1))
	}
	c.AddPricing(pricing.Stats{
		RevenueQuotes: 101, ThresholdQuotes: 102, MonteCarloQuotes: 103,
		ProbEvals: 208, TableHits: 52, ScratchReuses: 106, ScratchAllocs: 107,
	})
	c.MergeLatency("platform-1", latencies(3*time.Millisecond))
}

// TestGoldenReport pins the `combench -metrics` document: every key,
// and which counter fills it, compared as decoded JSON. A change that
// moves it on purpose reruns with -update and says so; EXPERIMENTS.md's
// schema sample is this file.
func TestGoldenReport(t *testing.T) {
	c := New()
	fillEveryCounter(c)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report.golden.json"
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report differs from %s as decoded JSON; got:\n%s", path, buf.String())
	}
}
