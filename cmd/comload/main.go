// Command comload is the closed-loop load generator for comserve: it
// replays a workload stream against the serving endpoints at a target
// event rate, measures client-side latency quantiles and shed rate,
// and prints (or writes) a JSON report.
//
// Usage:
//
//	comload -url http://127.0.0.1:8080 -requests 2000 -workers 400 -qps 500
//	comload -url http://127.0.0.1:8080 -in stream.csv -qps 0 -conns 16
//	comload -url ... -in stream.csv -retries 50 -min-matched 1   # CI smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/serve"
	"crossmatch/internal/workload"
)

type options struct {
	url        string
	in         string
	requests   int
	workers    int
	rad        float64
	dist       string
	seed       int64
	qps        float64
	conns      int
	batch      int
	timeout    time.Duration
	retries    int
	unavailRet int
	label      string
	out        string
	minMatched int64
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "http://127.0.0.1:8080", "comserve base URL")
	flag.StringVar(&o.in, "in", "", "read the workload from a comgen CSV instead of generating")
	flag.IntVar(&o.requests, "requests", 1000, "total requests (synthetic workload)")
	flag.IntVar(&o.workers, "workers", 200, "total workers (synthetic workload)")
	flag.Float64Var(&o.rad, "rad", 1.0, "service radius, km (synthetic workload)")
	flag.StringVar(&o.dist, "dist", "real", "value distribution: real or normal")
	flag.Int64Var(&o.seed, "seed", 42, "workload generation seed")
	flag.Float64Var(&o.qps, "qps", 0, "target event dispatch rate, events/s (0 = as fast as possible)")
	flag.IntVar(&o.conns, "conns", 0, "concurrent connections (default GOMAXPROCS)")
	flag.IntVar(&o.batch, "batch", 1, "events per NDJSON POST (consecutive same-kind arrivals)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-call HTTP timeout")
	flag.IntVar(&o.retries, "retries", 0, "retries per shed event, sleeping the server's retry hint (replay servers need this)")
	flag.IntVar(&o.unavailRet, "unavail-retries", 0, "separate retry budget per 503-class event (a draining shard, or a fleet owner that is not ready or whose post failed); fleet chaos runs need this to ride out a shard's restart")
	flag.StringVar(&o.label, "label", "", "stamp the report with this label")
	flag.StringVar(&o.out, "out", "", "write the JSON report here instead of stdout")
	flag.Int64Var(&o.minMatched, "min-matched", -1, "exit non-zero unless at least this many requests matched (CI smoke assertion; -1 disables)")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "comload: %v\n", err)
		os.Exit(1)
	}
}

func loadStream(o options) (*core.Stream, error) {
	if o.in != "" {
		f, err := os.Open(o.in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadCSV(f)
	}
	cfg, err := workload.Synthetic(o.requests, o.workers, o.rad, o.dist)
	if err != nil {
		return nil, err
	}
	return workload.Generate(cfg, o.seed)
}

func sortedShardNames(m map[string]*serve.ShardLoad) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// report is the JSON document comload writes: the client-side load
// report under the run's label and target.
type report struct {
	Label string            `json:"label,omitempty"`
	URL   string            `json:"url"`
	Load  *serve.LoadReport `json:"load"`
}

func run(w io.Writer, o options) error {
	stream, err := loadStream(o)
	if err != nil {
		return err
	}
	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		URL:            o.url,
		Stream:         stream,
		QPS:            o.qps,
		Conns:          o.conns,
		Batch:          o.batch,
		Timeout:        o.timeout,
		Retries:        o.retries,
		UnavailRetries: o.unavailRet,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr,
		"comload: %d events in %.0fms (%.0f ev/s): %d ok, %d resumed, %d shed (rate %.3f), %d unavailable, %d dropped, %d failed; matched %d, revenue %.1f; p50 %.2fms p90 %.2fms p99 %.2fms\n",
		rep.Events, rep.WallMs, rep.QPS, rep.OK, rep.Resumed, rep.Shed, rep.ShedRate, rep.Unavailable, rep.Dropped, rep.Failed,
		rep.Matched, rep.Revenue, rep.P50Ms, rep.P90Ms, rep.P99Ms)
	for _, name := range sortedShardNames(rep.Shards) {
		sl := rep.Shards[name]
		fmt.Fprintf(os.Stderr,
			"comload: shard %s: %d ok, %d shed, %d unavailable, %d resumed; matched %d, revenue %.1f; p50 %.2fms p99 %.2fms\n",
			name, sl.OK, sl.Shed, sl.Unavailable, sl.Resumed, sl.Matched, sl.Revenue, sl.P50Ms, sl.P99Ms)
	}

	out := w
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
		fmt.Fprintf(os.Stderr, "comload: wrote %s\n", o.out)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{Label: o.label, URL: o.url, Load: rep}); err != nil {
		return err
	}

	if o.minMatched >= 0 && rep.Matched < o.minMatched {
		return fmt.Errorf("matched %d requests, need at least %d", rep.Matched, o.minMatched)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d events failed (transport or server errors)", rep.Failed)
	}
	return nil
}
