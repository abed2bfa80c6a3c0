package workload

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"crossmatch/internal/core"
)

// TestGeneratePinnedStreams pins every stream builder of this package to
// digests taken from a build that is known good, so a change to how a
// stream is built — the generator's draws, the sort, the payload layout —
// cannot move a bit unseen. Each digest covers every event field, the
// history values, Platforms, MaxValue, MaxWorkerID, which arrivals share
// one history slice, and the order of the payloads in memory.
func TestGeneratePinnedStreams(t *testing.T) {
	city := func(workers int) Config {
		sq := NewUniformSquare(math.Sqrt(float64(workers) / 50))
		var cfg Config
		for id := 1; id <= 2; id++ {
			cfg.Platforms = append(cfg.Platforms, PlatformSpec{
				ID: core.PlatformID(id), Requests: 9 * workers / 2, Workers: workers / 2, Radius: 1,
				RequestSpatial: sq, Values: DefaultRealValues(),
			})
		}
		return cfg
	}
	dense, err := Synthetic(4000, 800, 1.0, "real") // Appearances = SyntheticAppearances = 4
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		seed int64
		want [3]uint64 // Generate, ReorderUniform of it, ReadCSV of WriteCSV of that
	}{
		{"city20k/seed1", city(2000), 1, [3]uint64{0x7fc7296a32a1364c, 0x3bd80808ad199d5f, 0x3bd80808ad199d5f}},
		{"city20k/seed42", city(2000), 42, [3]uint64{0x5e6b1c2116574160, 0x0221ddb50e9ef6e2, 0x0221ddb50e9ef6e2}},
		{"dense7k/seed1", dense, 1, [3]uint64{0xf952474531af4253, 0x4eb80001e37091ef, 0x4eb80001e37091ef}},
		{"dense7k/seed42", dense, 42, [3]uint64{0x282603a82ecf2fbc, 0xbcc783a35fa57ae4, 0xbcc783a35fa57ae4}},
	}
	for _, c := range cases {
		generated, err := Generate(c.cfg, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		reordered, err := ReorderUniform(generated, c.seed+1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, reordered); err != nil {
			t.Fatal(err)
		}
		read, err := ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range []*core.Stream{generated, reordered, read} {
			if got := streamDigest(s); got != c.want[i] {
				t.Errorf("%s, build %d: digest %#016x, pinned %#016x", c.name, i, got, c.want[i])
			}
		}
	}
}

// TestGenerateIgnoresHelperSchedule: Generate sorts histories on a
// helper goroutine, and when the helper runs must never reach the
// stream. The digest is the same on one core and on two, and with two
// goroutines yielding in a loop beside Generate, which move the
// helper's schedule against the drawing goroutine's.
func TestGenerateIgnoresHelperSchedule(t *testing.T) {
	dense, err := Synthetic(4000, 800, 1.0, "real") // four appearances share each history
	if err != nil {
		t.Fatal(err)
	}
	city, err := Synthetic(18000, 2000, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	city.Platforms[0].Appearances, city.Platforms[1].Appearances = 1, 1
	digest := func(cfg Config, seed int64) uint64 {
		s, err := Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		return streamDigest(s)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"dense", dense}, {"city", city}} {
		for _, seed := range []int64{1, 42} {
			want := digest(c.cfg, seed)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				if got := digest(c.cfg, seed); got != want {
					t.Errorf("%s/seed%d at GOMAXPROCS %d: digest %#016x, want %#016x", c.name, seed, procs, got, want)
				}
				stop, busy := make(chan struct{}), sync.WaitGroup{}
				for range 2 {
					busy.Add(1)
					go func() {
						defer busy.Done()
						for {
							select {
							case <-stop:
								return
							default:
								runtime.Gosched()
							}
						}
					}()
				}
				got := digest(c.cfg, seed)
				close(stop)
				busy.Wait()
				if got != want {
					t.Errorf("%s/seed%d at GOMAXPROCS %d, yielding beside it: digest %#016x, want %#016x", c.name, seed, procs, got, want)
				}
			}
		}
	}
}

// streamDigest hashes everything a stream hands its consumers.
func streamDigest(s *core.Stream) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	f := math.Float64bits
	events := s.Events()
	var workerAt, requestAt []uintptr
	sharedWith := map[*float64]int{} // a history's first element -> the event that first carried it
	for i, e := range events {
		put(uint64(e.Time), uint64(e.Kind))
		if e.Kind == core.WorkerArrival {
			w := e.Worker
			put(uint64(w.ID), uint64(w.Arrival), f(w.Loc.X), f(w.Loc.Y), f(w.Radius), uint64(w.Platform), uint64(len(w.History)))
			for _, v := range w.History {
				put(f(v))
			}
			if len(w.History) > 0 {
				first, seen := sharedWith[&w.History[0]]
				if !seen {
					first, sharedWith[&w.History[0]] = i, i
				}
				put(uint64(first))
			}
			workerAt = append(workerAt, uintptr(unsafe.Pointer(w)))
			continue
		}
		r := e.Request
		put(uint64(r.ID), uint64(r.Arrival), f(r.Loc.X), f(r.Loc.Y), f(r.Value), uint64(r.Platform))
		requestAt = append(requestAt, uintptr(unsafe.Pointer(r)))
	}
	for _, p := range s.Platforms() {
		put(uint64(p))
	}
	put(f(s.MaxValue()), uint64(s.MaxWorkerID()))
	// The payloads' memory order: each payload's rank by address among
	// those of its kind, in stream order.
	for _, at := range [][]uintptr{workerAt, requestAt} {
		byAddr := make([]int, len(at))
		for i := range byAddr {
			byAddr[i] = i
		}
		slices.SortFunc(byAddr, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
		rank := make([]int, len(at))
		for r, i := range byAddr {
			rank[i] = r
		}
		for _, r := range rank {
			put(uint64(r))
		}
	}
	return h.Sum64()
}
