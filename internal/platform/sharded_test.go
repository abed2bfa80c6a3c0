package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/geo"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/trace"
	"crossmatch/internal/workload"
)

// assertGloballyUnique checks the whole-run claim-protocol invariant:
// no worker serves two requests anywhere, across platforms and shards.
func assertGloballyUnique(t *testing.T, res *Result) {
	t.Helper()
	seen := map[int64]bool{}
	for pid, pr := range res.Platforms {
		for _, a := range pr.Matching.Assignments() {
			if seen[a.Worker.ID] {
				t.Fatalf("worker %d assigned twice (second on platform %d)", a.Worker.ID, pid)
			}
			seen[a.Worker.ID] = true
		}
	}
}

// TestShardedRunDeterministic: shards>1 must be bit-identical run to
// run — the frontier gates serialize every cross-shard interaction by
// sequence number, so scheduling cannot leak into results.
func TestShardedRunDeterministic(t *testing.T) {
	stream := feedTestStream(t, 600, 200, 11)
	for _, alg := range []string{AlgDemCOM, AlgRamCOM, AlgTOTA} {
		factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 42, Shards: 4}
		want, err := Run(stream, factory, cfg)
		if err != nil {
			t.Fatalf("%s: first sharded run: %v", alg, err)
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		assertGloballyUnique(t, want)
		for i := 0; i < 3; i++ {
			got, err := Run(stream, factory, cfg)
			if err != nil {
				t.Fatalf("%s: rerun %d: %v", alg, i, err)
			}
			assertSameResult(t, want, got)
		}
	}
}

// TestShardedSingleShardMatchesUnsharded drives the sharded machinery
// with one shard (runSharded directly — runContext routes Shards<=1 to
// the unsharded path) and requires bit-parity with the plain engine:
// one shard keeps the run seed, sees every event in stream order, never
// classifies a boundary, and merges trivially.
func TestShardedSingleShardMatchesUnsharded(t *testing.T) {
	stream := feedTestStream(t, 500, 150, 3)
	for _, alg := range []string{AlgTOTA, AlgDemCOM, AlgRamCOM} {
		factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue()})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(stream, factory, Config{Seed: 7})
		if err != nil {
			t.Fatalf("%s: unsharded: %v", alg, err)
		}
		got, err := runSharded(context.Background(), stream, factory, Config{Seed: 7, Shards: 1})
		if err != nil {
			t.Fatalf("%s: structurally sharded: %v", alg, err)
		}
		assertSameResult(t, want, got)
	}
}

// TestShardedCrossShardBorrowsHappen pins that the claim protocol
// actually commits across boundaries on a dense city — otherwise every
// other test here would vacuously pass on local-only matching.
func TestShardedCrossShardBorrowsHappen(t *testing.T) {
	stream := feedTestStream(t, 800, 150, 17)
	factory, err := FactoryConfigured(AlgDemCOM, AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	res, err := Run(stream, factory, Config{Seed: 2, Shards: 4, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	assertGloballyUnique(t, res)
	rep := mc.Snapshot()
	if rep.Counters.CrossShardBorrows == 0 {
		t.Fatal("no cross-shard borrow committed on a dense city — boundary cooperation is dead")
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("metrics shard section has %d entries, want 4", len(rep.Shards))
	}
	var applied, boundary, borrows int64
	for _, s := range rep.Shards {
		applied += s.Applied
		boundary += s.BoundaryEvents
		borrows += s.Borrows
	}
	if applied != int64(stream.Len()) {
		t.Fatalf("shards applied %d events, stream has %d", applied, stream.Len())
	}
	if boundary == 0 {
		t.Fatal("no boundary events classified")
	}
	if borrows != rep.Counters.CrossShardBorrows {
		t.Fatalf("per-shard borrows %d != counter %d", borrows, rep.Counters.CrossShardBorrows)
	}
	// The cooperation ledger must stay balanced across shard hubs: the
	// outer assignments some platform booked equal the workers the
	// other platforms lent (locally or across shards).
	lent := 0
	for _, n := range res.Lent {
		lent += n
	}
	if outer := res.CooperativeServed(); lent != outer {
		t.Fatalf("lent %d != served outer %d", lent, outer)
	}
}

// TestShardedRejectsUnsupported pins the typed errors for the feature
// combinations the sharded runtime refuses.
func TestShardedRejectsUnsupported(t *testing.T) {
	stream := feedTestStream(t, 40, 20, 1)
	tota, _ := FactoryConfigured(AlgTOTA, AlgConfig{})
	batch, _ := FactoryConfigured(AlgBatchCOM, AlgConfig{Window: 8})
	cases := []struct {
		name    string
		factory MatcherFactory
		cfg     Config
	}{
		{"service-ticks", tota, Config{Shards: 2, ServiceTicks: 3}},
		{"trace", tota, Config{Shards: 2, Trace: trace.New(trace.Options{})}},
		{"windowed", batch, Config{Shards: 2}},
	}
	for _, tc := range cases {
		if _, err := Run(stream, tc.factory, tc.cfg); !errors.Is(err, ErrShardUnsupported) {
			t.Errorf("%s: Run err = %v, want ErrShardUnsupported", tc.name, err)
		}
		cfg := tc.cfg
		cfg.ShardReach = 2
		if _, err := NewEngine(stream.Platforms(), tc.factory, cfg); !errors.Is(err, ErrShardUnsupported) {
			t.Errorf("%s: NewEngine err = %v, want ErrShardUnsupported", tc.name, err)
		}
	}
	// Reach validation: the engine needs an explicit reach...
	if _, err := NewEngine(stream.Platforms(), tota, Config{Shards: 2}); err == nil {
		t.Error("sharded engine without ShardReach accepted")
	}
	// ...a stream run rejects a reach the stream exceeds...
	if _, err := Run(stream, tota, Config{Shards: 2, ShardReach: 0.01}); !errors.Is(err, ErrShardReach) {
		t.Error("stream exceeding explicit ShardReach accepted")
	}
	// ...and the engine rejects an over-reach worker at arrival.
	eng, err := NewEngine(stream.Platforms(), tota, Config{Shards: 2, ShardReach: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	w := &core.Worker{ID: 900, Arrival: 1, Loc: geo.Point{}, Radius: 3, Platform: 1, History: []float64{1}}
	if _, err := eng.Process(core.Event{Time: 1, Kind: core.WorkerArrival, Worker: w}); !errors.Is(err, ErrShardReach) {
		t.Fatalf("over-reach worker: %v, want ErrShardReach", err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedChaos runs the full chaos drill of the satellite task:
// injected cooperation-latency faults, a shard wedged mid-run longer
// than the stall watchdog, and a live engine feed — the run must
// complete, degrade (stall counters move), and still produce a globally
// valid matching.
func TestShardedChaos(t *testing.T) {
	stream := feedTestStream(t, 600, 200, 23)
	factory, err := FactoryConfigured(AlgDemCOM, AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Int64
	testShardHold = func(si int, seq int64) {
		// Wedge shard 1 on a stride of its events, well past the
		// watchdog, so claim gates targeting it time out and degrade.
		if si == 1 && seq%97 == 0 {
			stalled.Add(1)
			time.Sleep(8 * time.Millisecond)
		}
	}
	defer func() { testShardHold = nil }()
	mc := metrics.New()
	cfg := Config{
		Seed:              3,
		Shards:            3,
		ShardStallTimeout: 2 * time.Millisecond,
		Metrics:           mc,
		Faults: &fault.Plan{
			LatencyRate: 0.3,
			LatencyMin:  time.Millisecond,
			LatencyMax:  4 * time.Millisecond,
		},
	}
	res, err := Run(stream, factory, cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("chaos result invalid: %v", err)
	}
	assertGloballyUnique(t, res)
	if stalled.Load() == 0 {
		t.Fatal("hold hook never fired — the drill tested nothing")
	}
	rep := mc.Snapshot()
	if rep.Counters.ShardStalls == 0 {
		t.Log("note: no gate wait hit the watchdog this run (timing-dependent)")
	}
	if res.TotalServed() == 0 {
		t.Fatal("chaos run served nothing")
	}
}

// TestHubClaimConcurrentAccounting hammers the claim commit point
// directly: many goroutines race for one worker through the same path
// cross-shard borrows use; exactly one must win and every loser must be
// accounted as a claim conflict.
func TestHubClaimConcurrentAccounting(t *testing.T) {
	const claimers = 16
	mc := metrics.New()
	h := NewHub()
	h.SetMetrics(mc)
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	if err := h.RegisterPlatform(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPlatform(2, p2); err != nil {
		t.Fatal(err)
	}
	w := &core.Worker{ID: 77, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}}
	if err := h.WorkerArrived(w); err != nil {
		t.Fatal(err)
	}
	p2.Add(w)
	h.seal()
	var wins atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < claimers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if h.claim(1, 77, 10, false) {
				wins.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d claims won, want exactly 1", wins.Load())
	}
	if p2.Len() != 0 {
		t.Fatal("winning claim did not remove the worker")
	}
	if got := mc.Snapshot().Counters.ClaimConflicts; got != claimers-1 {
		t.Fatalf("claim conflicts %d, want %d", got, claimers-1)
	}
}

// TestShardQueueBackpressure wedges one shard and feeds a stream several
// queues long: the dispatcher must block once some queue (the wedged
// shard's, or one gated behind it) holds shardQueueBound items instead
// of queueing the rest of the stream, and after the shard is released
// the run must finish on the bits of an unwedged one.
func TestShardQueueBackpressure(t *testing.T) {
	stream := feedTestStream(t, 8*shardQueueBound, 2*shardQueueBound, 29)
	factory, _ := FactoryConfigured(AlgTOTA, AlgConfig{})
	cfg := Config{Seed: 1, Shards: 3, ShardReach: maxWorkerRadius(stream)}
	want, err := Run(stream, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	testShardHold = func(si int, _ int64) {
		if si == 0 {
			<-release
		}
	}
	defer func() { testShardHold = nil }()
	eng, err := NewEngine(stream.Platforms(), factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan error, 1)
	go func() {
		for _, ev := range stream.Events() {
			if _, err := eng.step(ev, false); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	for full := false; !full; {
		select {
		case err := <-fed:
			t.Fatalf("feeder finished (%v) with a shard wedged: %+v", err, eng.ShardStats())
		default:
			runtime.Gosched()
		}
		for _, st := range eng.ShardStats() {
			if st.QueueDepth > shardQueueBound {
				t.Fatalf("shard %d queue depth %d over the bound %d", st.Shard, st.QueueDepth, shardQueueBound)
			}
			full = full || st.QueueDepth == shardQueueBound
		}
	}
	close(release)
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
}

func BenchmarkShardedEngine(b *testing.B) {
	cfg, err := workload.Synthetic(4000, 1200, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.Generate(cfg, 77)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := FactoryConfigured(AlgRamCOM, AlgConfig{MaxValue: stream.MaxValue()})
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(stream, factory, Config{Seed: 9, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalServed() == 0 {
					b.Fatal("nothing served")
				}
			}
		})
	}
}
