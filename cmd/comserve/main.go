// Command comserve boots the live matching service: an HTTP server
// that feeds arrivals into the deterministic matching engine and
// answers each request arrival with its match decision (assigned
// worker, payment, outcome reason). Admission control (token bucket +
// bounded ingest queue) sheds overload with 429 and Retry-After;
// SIGTERM/SIGINT drains gracefully — in-flight decisions complete,
// queued events answer 503 — and the final per-platform result prints
// on exit. With -wal-dir the log is re-driven before the port is bound,
// and a recovery that fails exits 1.
//
// Endpoints: POST /v1/requests and /v1/workers (single JSON object or
// NDJSON batch), GET /v1/metrics (admission + engine funnel snapshot),
// GET /v1/trace (decision spans as JSONL, with -trace), GET /healthz,
// plus /debug/vars and /debug/pprof.
//
// Usage:
//
//	comserve -alg DemCOM -addr :8080 -rate 500 -queue 256
//	comserve -alg RamCOM -maxvalue 60 -deadline 2s
//	comserve -replay stream.csv -alg DemCOM -seed 42   # deterministic replay
//	comserve -wal-dir /var/lib/comserve -fsync-batch 32  # durable: restart recovers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/platform"
	"crossmatch/internal/serve"
	"crossmatch/internal/trace"
	"crossmatch/internal/workload"
)

type options struct {
	addr         string
	alg          string
	seed         int64
	replay       string
	platforms    string
	maxValue     float64
	queueCap     int
	rate         float64
	burst        int
	deadline     time.Duration
	procDelay    time.Duration
	serviceTicks int64
	window       int64
	batchDeadl   int64
	noCoop       bool
	faultsSpec   string
	traceOn      bool
	traceCap     int
	traceSample  float64
	portFile     string
	walDir       string
	fsyncBatch   int
	snapEvery    int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.alg, "alg", platform.AlgDemCOM, "algorithm: TOTA, Greedy-RT, DemCOM, RamCOM or BatchCOM")
	flag.Int64Var(&o.seed, "seed", 42, "random seed (the served result is a pure function of the event sequence and this seed)")
	flag.StringVar(&o.replay, "replay", "", "comgen CSV recorded stream: serve in deterministic replay mode")
	flag.StringVar(&o.platforms, "platforms", "1,2", "live-mode platform IDs, comma-separated")
	flag.Float64Var(&o.maxValue, "maxvalue", 0, "a-priori max request value Umax (required live for RamCOM and Greedy-RT)")
	flag.IntVar(&o.queueCap, "queue", 1024, "ingest queue capacity; a full queue sheds with 429")
	flag.Float64Var(&o.rate, "rate", 0, "token-bucket admission rate, events/s (0 = unlimited)")
	flag.IntVar(&o.burst, "burst", 0, "token-bucket burst (default: rate, at least 1)")
	flag.DurationVar(&o.deadline, "deadline", 10*time.Second, "per-request decision deadline (expired waits answer 504)")
	flag.DurationVar(&o.procDelay, "proc-delay", 0, "artificial per-event engine delay (capacity knob for overload experiments)")
	flag.Int64Var(&o.serviceTicks, "service-ticks", 0, "worker service duration in virtual ticks (0 = workers serve once)")
	flag.Int64Var(&o.window, "window", 0, "BatchCOM batching window in virtual ticks (one tick = 1ms live; 0 = default window)")
	flag.Int64Var(&o.batchDeadl, "batch-deadline", 0, "cap on how long BatchCOM may buffer one request, in virtual ticks (0 = window-boundary flushes only)")
	flag.BoolVar(&o.noCoop, "nocoop", false, "disable cross-platform cooperation")
	flag.StringVar(&o.faultsSpec, "faults", "", "cooperation fault plan, e.g. 'drop=0.1,latency=0.2:1ms-10ms' (see EXPERIMENTS.md)")
	flag.BoolVar(&o.traceOn, "trace", false, "record per-request decision spans (export at /v1/trace)")
	flag.IntVar(&o.traceCap, "trace-cap", 4096, "span ring capacity per platform (0 = default)")
	flag.Float64Var(&o.traceSample, "trace-sample", 1, "fraction of requests traced, in [0,1]; 0 traces everything")
	flag.StringVar(&o.portFile, "port-file", "", "write the bound host:port here once listening (for scripts racing startup)")
	flag.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory: events are durable before they are applied, and a restart on the same directory recovers the exact pre-crash state")
	flag.IntVar(&o.fsyncBatch, "fsync-batch", 1, "fsync the WAL every N appends (1 = every event; larger batches trade the last <N events for throughput)")
	flag.IntVar(&o.snapEvery, "snapshot-every", 1000, "write a recovery checkpoint every N applied events (0 = only at start-up on an empty log and on shutdown)")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		if errors.Is(err, platform.ErrUnknownAlgorithm) {
			fmt.Fprintf(os.Stderr, "comserve: %v\nrun 'comserve -h' for the accepted values\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "comserve: %v\n", err)
		}
		os.Exit(1)
	}
}

func parsePlatforms(spec string) ([]core.PlatformID, error) {
	var pids []core.PlatformID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 32)
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("-platforms: bad platform id %q", part)
		}
		pids = append(pids, core.PlatformID(id))
	}
	if len(pids) == 0 {
		return nil, fmt.Errorf("-platforms: need at least one platform id")
	}
	return pids, nil
}

func buildOptions(o options) (serve.Options, error) {
	opts := serve.Options{
		Algorithm:     o.alg,
		Seed:          o.seed,
		MaxValue:      o.maxValue,
		QueueCap:      o.queueCap,
		Rate:          o.rate,
		Burst:         o.burst,
		Deadline:      o.deadline,
		ProcessDelay:  o.procDelay,
		ServiceTicks:  core.Time(o.serviceTicks),
		Window:        core.Time(o.window),
		BatchDeadline: core.Time(o.batchDeadl),
		DisableCoop:   o.noCoop,
		WALDir:        o.walDir,
		FsyncBatch:    o.fsyncBatch,
		SnapshotEvery: o.snapEvery,
	}
	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			return opts, err
		}
		stream, err := workload.ReadCSV(f)
		f.Close()
		if err != nil {
			return opts, fmt.Errorf("reading %s: %w", o.replay, err)
		}
		opts.Replay = stream
	} else {
		pids, err := parsePlatforms(o.platforms)
		if err != nil {
			return opts, err
		}
		opts.Platforms = pids
	}
	if o.faultsSpec != "" {
		plan, err := fault.ParsePlan(o.faultsSpec)
		if err != nil {
			return opts, fmt.Errorf("-faults: %w", err)
		}
		opts.Faults = plan
	}
	if o.traceOn {
		if err := trace.CheckFlags(o.traceSample, o.traceCap); err != nil {
			return opts, err
		}
		opts.Tracer = trace.New(trace.Options{Capacity: o.traceCap, Sample: o.traceSample})
	}
	return opts, nil
}

func run(w io.Writer, o options) error {
	opts, err := buildOptions(o)
	if err != nil {
		return err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}

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
	mode := "live"
	if opts.Replay != nil {
		mode = fmt.Sprintf("replay (%d events)", opts.Replay.Len())
	}
	fmt.Fprintf(w, "comserve: %s, alg %s, seed %d, listening on %s\n", mode, o.alg, o.seed, bound)
	if o.walDir != "" {
		if rec := srv.Recovery(); rec.Recovered {
			fmt.Fprintf(w, "comserve: recovered %d events from %s (snapshot @%d, clock %dms) in %.1fms\n",
				rec.Events, o.walDir, rec.SnapshotApplied, rec.VLast, rec.DurationMs)
		} else {
			fmt.Fprintf(w, "comserve: wal %s is empty, starting fresh\n", o.walDir)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintf(w, "comserve: draining...\n")
	case err := <-serveErr:
		_, _ = srv.Close()
		return fmt.Errorf("http server: %w", err)
	}

	// Drain: refuse new work, let queued/in-flight decisions terminate,
	// then stop the listener and print the final result.
	srv.BeginDrain()
	res, err := srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)
	if err != nil {
		return err
	}

	snap := srv.Snapshot()
	fmt.Fprintf(w, "comserve: served %d events (%d requests, %d workers), shed %d (rate %d, queue %d), drained %d, bad %d\n",
		snap.Server.Accepted, snap.Server.RequestsSeen, snap.Server.WorkersSeen,
		snap.Server.ShedRateLimit+snap.Server.ShedQueueFull,
		snap.Server.ShedRateLimit, snap.Server.ShedQueueFull,
		snap.Server.Drained, snap.Server.BadEvents)
	fmt.Fprintf(w, "comserve: matched %d of %d requests, revenue %.1f\n",
		snap.Server.Matched, snap.Server.Served, res.TotalRevenue())
	return nil
}
