package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"crossmatch/internal/metrics"
	"crossmatch/internal/pricing"
	"crossmatch/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden.json from this run")

// fillEveryCounter is internal/metrics' test helper of the same name:
// the counter behind Counters' k-th field set to 10·(k+1), a distinct
// pricing section, one latency observation.
func fillEveryCounter(c *metrics.Collector) {
	for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
		c.Add(k, 10*(int64(k)+1))
	}
	c.AddPricing(pricing.Stats{
		RevenueQuotes: 101, ThresholdQuotes: 102, MonteCarloQuotes: 103,
		ProbEvals: 208, TableHits: 52, ScratchReuses: 106, ScratchAllocs: 107,
	})
	r := stats.NewReservoir(0, 1)
	r.Observe(3 * time.Millisecond)
	c.MergeLatency("platform-1", r)
}

// TestGoldenMetricsSnapshot pins the /v1/metrics document of a server
// over a filled collector (uptime masked; runs is 11 because the
// snapshot folds the run in).
func TestGoldenMetricsSnapshot(t *testing.T) {
	mc := metrics.New()
	fillEveryCounter(mc)
	srv, _ := startServer(t, Options{Seed: 3, Metrics: mc})
	snap := srv.Snapshot()
	snap.Server.UptimeMs = 0
	sameJSON(t, "testdata/metrics.golden.json", snap)
}

// sameJSON compares a document with its golden file as decoded JSON;
// -update rewrites the file.
func sameJSON(t *testing.T, path string, doc any) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("document differs from %s as decoded JSON; got:\n%s", path, buf.String())
	}
}
