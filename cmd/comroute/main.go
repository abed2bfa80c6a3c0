// Command comroute fronts a fleet of comserve shards: arrival events
// are partitioned by consistent spatial hashing on the matching grid's
// cell geometry, so each shard owns a stable set of cells and its own
// write-ahead log. One health prober per shard keeps one readiness bit
// (ready means /healthz answered 200), and that keeps a partial outage
// partial: a SIGKILLed shard is routed around within the probe period,
// its cells answer fast 503s with retry hints, and once the restarted
// shard has re-driven its WAL and listens again, the prober re-admits
// it. Each sub-batch is posted once: a failed post answers 503 with a
// retry hint, and the client decides whether to send it again.
//
// Endpoints mirror comserve: POST /v1/requests and /v1/workers (single
// object or NDJSON batch; per-line decisions are stamped with the
// serving shard), GET /v1/metrics (fleet snapshot with the per-shard
// readiness table), GET /healthz (200 while ≥1 shard is ready), plus
// /debug/pprof for profiling the hop itself.
//
// The -split mode is the offline twin of the online dispatch: it
// partitions a recorded comgen stream into per-shard CSVs with exactly
// the ownership the router would apply, which is what replay-mode fleet
// shards serve (see README "Serving").
//
// Usage:
//
//	comroute -shards s1=http://127.0.0.1:9001,s2=http://127.0.0.1:9002
//	comroute -shards ... -probe-interval 50ms
//	comroute -split stream.csv -names s1,s2,s3 -out shards/   # per-shard CSVs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crossmatch/internal/index"
	"crossmatch/internal/route"
	"crossmatch/internal/workload"
)

type options struct {
	addr       string
	portFile   string
	shardsSpec string
	cellSize   float64
	probeEvery time.Duration

	split      string
	splitNames string
	splitOut   string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.portFile, "port-file", "", "write the bound host:port here once listening (for scripts racing startup)")
	flag.StringVar(&o.shardsSpec, "shards", "", "fleet spec: comma-separated name=url pairs, e.g. 's1=http://127.0.0.1:9001,s2=http://127.0.0.1:9002'")
	flag.Float64Var(&o.cellSize, "cell", index.DefaultCell, "spatial-hash cell size, km: positive and finite, 0 for the default; must match the split geometry")
	flag.DurationVar(&o.probeEvery, "probe-interval", 100*time.Millisecond, "per-shard health probe period")
	flag.StringVar(&o.split, "split", "", "comgen CSV to partition into per-shard sub-streams instead of serving")
	flag.StringVar(&o.splitNames, "names", "", "-split: shard names, comma-separated (default: the names from -shards)")
	flag.StringVar(&o.splitOut, "out", ".", "-split: directory for the per-shard <name>.csv files")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "comroute: %v\n", err)
		os.Exit(1)
	}
}

// parseShards parses the name=url fleet spec.
func parseShards(spec string) ([]route.ShardConfig, error) {
	var out []route.ShardConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-shards: want name=url, got %q", part)
		}
		out = append(out, route.ShardConfig{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards: need at least one name=url pair")
	}
	return out, nil
}

func run(w io.Writer, o options) error {
	if o.split != "" {
		return runSplit(w, o)
	}
	shards, err := parseShards(o.shardsSpec)
	if err != nil {
		return err
	}
	r, err := route.New(route.Options{Shards: shards, CellSize: o.cellSize, ProbeInterval: o.probeEvery})
	if err != nil {
		return err
	}
	defer r.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.portFile != "" {
		if err := os.WriteFile(o.portFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -port-file: %w", err)
		}
	}
	fmt.Fprintf(w, "comroute: %d shards, cell %.2fkm, listening on %s\n", len(shards), r.Snapshot().CellSize, bound)
	for _, sc := range shards {
		fmt.Fprintf(w, "comroute: shard %s -> %s\n", sc.Name, sc.URL)
	}

	hs := &http.Server{Handler: r.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintf(w, "comroute: shutting down...\n")
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)

	snap := r.Snapshot()
	fmt.Fprintf(w, "comroute: %d calls, %d lines (%d refused, %d busy, %d bad)\n",
		snap.Calls, snap.Lines, snap.Refused, snap.Busy, snap.BadLines)
	for _, sh := range snap.Shards {
		fmt.Fprintf(w, "comroute: shard %s: %d lines, %d ok, %d shed, %d unavailable, %d errors\n",
			sh.Name, sh.Lines, sh.OK, sh.Shed, sh.Unavailable, sh.Errors)
	}
	return nil
}

// runSplit partitions a recorded stream into per-shard CSVs with the
// router's exact ownership function.
func runSplit(w io.Writer, o options) error {
	namesSpec := o.splitNames
	if namesSpec == "" && o.shardsSpec != "" {
		shards, err := parseShards(o.shardsSpec)
		if err != nil {
			return err
		}
		var names []string
		for _, sc := range shards {
			names = append(names, sc.Name)
		}
		namesSpec = strings.Join(names, ",")
	}
	var names []string
	for _, n := range strings.Split(namesSpec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-split: need shard names (-names or -shards)")
	}

	f, err := os.Open(o.split)
	if err != nil {
		return err
	}
	stream, err := workload.ReadCSV(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", o.split, err)
	}
	parts, err := route.SplitStream(stream, names, o.cellSize)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.splitOut, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		path := filepath.Join(o.splitOut, name+".csv")
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := workload.WriteCSV(out, parts[name]); err != nil {
			out.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "comroute: shard %s: %d events -> %s\n", name, parts[name].Len(), path)
	}
	return nil
}
