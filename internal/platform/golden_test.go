package platform

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crossmatch/internal/core"
)

// goldenRow is one pinned run: the counters every table reads plus an
// FNV-1a digest of (request ID, worker ID, payment bits) over the
// assignments in platform-ascending, insertion order — the same order
// assertSameResult walks. shards is 1 in every row: the sharded engine's
// rows went with it (PR 27), and the column stays so that the other rows,
// and the subtest names built from them, are as they were captured.
type goldenRow struct {
	alg      string
	ticks    core.Time
	shards   int
	requests int
	served   int
	outer    int
	recycled int
	revenue  uint64
	digest   uint64
}

// goldenRows were captured at the parent of the one-event-loop refactor
// (commit 8a2793f, where Run still had its own loop) on
// feedTestStream(400, 120, 7), Seed 99, BatchCOM window 8. The two
// BatchCOM rows were recaptured when its windows moved from the dense
// Hungarian to match.MaxWeightFlow: the two exact solvers break ties
// differently, and EXPERIMENTS.md's "Windowed dispatch" holds the move
// to a 40-seed table.
var goldenRows = []goldenRow{
	{"TOTA", 0, 1, 400, 145, 0, 0, 0x40a40281900910af, 0x5e3518490ef17c02},
	{"TOTA", 3, 1, 400, 244, 0, 244, 0x40b0e3d0b27c7a66, 0xb93c37ac7359a241},
	{"Greedy-RT", 0, 1, 400, 135, 0, 0, 0x40a465c4a7485ea0, 0xabf363f18f6469cf},
	{"Greedy-RT", 3, 1, 400, 226, 0, 226, 0x40b0a14e9b85df05, 0x4b3f42c142e9dc3},
	{"DemCOM", 0, 1, 400, 173, 28, 0, 0x40a52378a561ea87, 0xd8c7daa8f6fe84da},
	{"DemCOM", 3, 1, 400, 265, 20, 265, 0x40b1882d132b994e, 0xce642fe8d491b8cc},
	{"RamCOM", 0, 1, 400, 215, 77, 0, 0x40a8556ec3ad893a, 0xa6ffa6c6843d533b},
	{"RamCOM", 3, 1, 400, 283, 98, 283, 0x40af86bd61dccb00, 0xf5f700aa9d9d3231},
	{"BatchCOM", 0, 1, 400, 166, 21, 0, 0x40a520df84bd704e, 0x1de0312856acf6b3},
	{"BatchCOM", 3, 1, 400, 251, 9, 251, 0x40b0c15d270bed30, 0xcc84170aac9bd3e3},
}

func goldenOf(t *testing.T, res *Result) goldenRow {
	t.Helper()
	var g goldenRow
	h := fnv.New64a()
	pids := make([]core.PlatformID, 0, len(res.Platforms))
	for pid := range res.Platforms {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		pr := res.Platforms[pid]
		g.requests += pr.Stats.Requests
		hashAssignments(h, pr.Matching.Assignments())
	}
	g.served = res.TotalServed()
	g.outer = res.CooperativeServed()
	g.recycled = res.Recycled
	g.revenue = math.Float64bits(res.TotalRevenue())
	g.digest = h.Sum64()
	return g
}

// hashAssignments folds (request ID, worker ID, payment bits) of each
// assignment, in order, into h.
func hashAssignments(h hash.Hash64, as []core.Assignment) {
	var buf [24]byte
	for _, a := range as {
		binary.LittleEndian.PutUint64(buf[0:], uint64(a.Request.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(a.Worker.ID))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(a.Payment))
		h.Write(buf[:])
	}
}

func goldenConfig(t *testing.T, stream *core.Stream, row goldenRow) (MatcherFactory, Config) {
	t.Helper()
	factory, err := FactoryConfigured(row.alg, AlgConfig{MaxValue: stream.MaxValue(), Window: 8})
	if err != nil {
		t.Fatalf("FactoryConfigured(%s): %v", row.alg, err)
	}
	return factory, Config{Seed: 99, ServiceTicks: row.ticks}
}

func (g goldenRow) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, %#x, %#x}",
		g.alg, g.ticks, g.shards, g.requests, g.served, g.outer, g.recycled, g.revenue, g.digest)
}

// goldenDrivers are the ways a stream reaches the engine's step. They
// must all land on the same bits: Run (which seeds the recycle allocator
// itself), RunSource over a stream-backed source, and a hand-fed Engine
// taking a reply per request the way the serving layer does.
var goldenDrivers = []struct {
	name string
	run  func(*core.Stream, MatcherFactory, Config) (*Result, error)
}{
	{"Run", Run},
	{"RunSource", func(stream *core.Stream, factory MatcherFactory, cfg Config) (*Result, error) {
		return RunSource(context.Background(), stream.Platforms(), factory, StreamSource(stream), cfg)
	}},
	{"Engine", func(stream *core.Stream, factory MatcherFactory, cfg Config) (*Result, error) {
		eng, err := NewEngine(stream.Platforms(), factory, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.SetRecycleBase(stream.MaxWorkerID()); err != nil {
			return nil, err
		}
		for _, ev := range stream.Events() {
			if _, err := eng.Process(ev); err != nil {
				return nil, err
			}
		}
		res, err := eng.Finish()
		if err != nil {
			return nil, err
		}
		if _, err := eng.Process(core.Event{}); !errors.Is(err, ErrEngineClosed) {
			return nil, fmt.Errorf("Process after Finish: %v, want ErrEngineClosed", err)
		}
		return res, nil
	}},
}

// TestGoldenRuns pins the bits of every algorithm × ServiceTicks
// combination on one fixed stream, through every driver. The values
// predate the refactor that made Run the Engine fed from a stream, so
// the test is the proof that the refactor moved no decision — and it
// replaces the Run ≡ Engine ≡ RunSource parity tests, which after the
// refactor would compare a path with itself.
func TestGoldenRuns(t *testing.T) {
	stream := feedTestStream(t, 400, 120, 7)
	for _, want := range goldenRows {
		for _, drv := range goldenDrivers {
			t.Run(fmt.Sprintf("%s/ticks%d/shards%d/%s", want.alg, want.ticks, want.shards, drv.name), func(t *testing.T) {
				factory, cfg := goldenConfig(t, stream, want)
				res, err := drv.run(stream, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := withKey(goldenOf(t, res), want); got != want {
					t.Fatalf("\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestRunIgnoresPayloadLayout runs every golden configuration over the
// generator's stream, whose payloads are packed in arrival order, and
// over core.NewStream of the same entities cloned one allocation each
// in an unrelated order: where a payload lives must not reach a
// decision.
func TestRunIgnoresPayloadLayout(t *testing.T) {
	packed := feedTestStream(t, 400, 120, 7)
	var events []core.Event
	for _, i := range rand.New(rand.NewSource(1)).Perm(packed.Len()) {
		e := packed.Events()[i]
		if e.Kind == core.WorkerArrival {
			w := *e.Worker
			w.History = slices.Clone(w.History)
			e.Worker = &w
		} else {
			r := *e.Request
			e.Request = &r
		}
		events = append(events, e)
	}
	loose, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	assertGoldenRowsAgree(t, packed, loose)
}

// assertGoldenRowsAgree runs every golden configuration over both
// streams, which hold the same entities, and compares the results bit
// for bit.
func assertGoldenRowsAgree(t *testing.T, a, b *core.Stream) {
	t.Helper()
	for _, row := range goldenRows {
		t.Run(fmt.Sprintf("%s/ticks%d/shards%d", row.alg, row.ticks, row.shards), func(t *testing.T) {
			factory, cfg := goldenConfig(t, a, row)
			want, err := Run(a, factory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(b, factory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got)
		})
	}
}

// TestRunIgnoresHistoryOrder runs every golden configuration over the
// generator's stream, whose histories are ascending and so shared by
// pricing.MakeHistory, and over a clone whose histories are shuffled,
// which takes the copy-and-sort branch at every arrival: the order a
// history is handed over in must not reach a decision.
func TestRunIgnoresHistoryOrder(t *testing.T) {
	shared := feedTestStream(t, 400, 120, 7)
	rng := rand.New(rand.NewSource(2))
	var events []core.Event
	for _, e := range shared.Events() {
		if e.Kind == core.WorkerArrival {
			w := *e.Worker
			if !slices.IsSorted(w.History) {
				t.Fatalf("worker %d: the generated history is not ascending", w.ID)
			}
			w.History = slices.Clone(w.History)
			rng.Shuffle(len(w.History), func(i, j int) { w.History[i], w.History[j] = w.History[j], w.History[i] })
			if slices.IsSorted(w.History) {
				t.Fatalf("worker %d: the shuffle left the history ascending", w.ID)
			}
			e.Worker = &w
		}
		events = append(events, e)
	}
	copied, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	assertGoldenRowsAgree(t, shared, copied)
}

// withKey copies the row key (alg, ticks, shards) onto a measured row so
// rows compare with ==.
func withKey(g, key goldenRow) goldenRow {
	g.alg, g.ticks, g.shards = key.alg, key.ticks, key.shards
	return g
}

// offlineGolden is OFF on the golden stream, captured at e8b25f8 where
// Offline still enumerated edges through index.Grid: served count,
// joint-optimum bits, and the goldenOf-style digest over Matching order.
// The digest was recaptured when this size moved from the dense
// Hungarian to match.MaxWeightFlow; the served count and the weight bits
// did not move.
var offlineGolden = struct {
	served         int
	weight, digest uint64
}{233, 0x40aea38e0a33b970, 0x202ed6a77dd26e76}

// TestGoldenOffline pins OFF's bits, so moving the graph builder to
// another index is shown to keep the edge list (and with it the solver's
// tie-breaks) exactly as it was.
func TestGoldenOffline(t *testing.T) {
	off, err := Offline(feedTestStream(t, 400, 120, 7))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashAssignments(h, off.Matching.Assignments())
	got := offlineGolden
	got.served, got.weight, got.digest = off.TotalServed, math.Float64bits(off.TotalWeight), h.Sum64()
	if got != offlineGolden {
		t.Fatalf("\n got {%d, %#x, %#x}\nwant {%d, %#x, %#x}", got.served, got.weight, got.digest,
			offlineGolden.served, offlineGolden.weight, offlineGolden.digest)
	}
}
